// guest_compute: four generated RV64 U-mode programs time-sliced on one
// cfi_ptstore hart. Host time is almost all Core fetch/decode/execute, so
// this is where interpreter (fetch/dispatch) changes show.
#include <stdexcept>

#include "kernel/guest.h"
#include "kernel/system.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ptstore;

constexpr VirtAddr kEntry = kUserSpaceBase + MiB(8);
/// Timer quantum: every expiry preempts the guest and the next slice
/// starts with a token-checked switch_to.
constexpr Cycles kQuantum = 400'000;

/// Counters whose measured-phase deltas feed the cpu/mmu/cache metrics.
constexpr const char* kLayerCounters[] = {
    "bbcache.hits", "bbcache.misses", "ITLB.hits",   "ITLB.misses",
    "L1I.hits",     "L1I.misses",     "DTLB.hits",   "DTLB.misses",
    "L1D.hits",     "L1D.misses",     "mmu.walks",   "core.instret",
    "process.switches", "process.faults"};

class GuestCompute : public Workload {
 public:
  explicit GuestCompute(u64 seed) : seed_(seed) {}

  void setup() override {
    programs_.clear();
    for (unsigned i = 0; i < kGuestPrograms; ++i) {
      programs_.push_back(
          build_guest_program(guest_params(seed_, i), kEntry, GuestRunner::kHeapBase));
    }

    u64 t = now_ns();
    auto master_or = System::create(SystemConfig::cfi_ptstore());
    create_ns_.push_back(now_ns() - t);
    if (!master_or) throw std::runtime_error("System::create: " + master_or.error());
    System& master = *master_or.value();
    GuestRunner loader(master.kernel());
    pids_.clear();
    for (const GuestProgram& g : programs_) {
      Process* p = master.kernel().processes().fork(master.init());
      if (p == nullptr || !loader.load_program(*p, kEntry, g.code)) {
        throw std::runtime_error("guest program load failed");
      }
      pids_.push_back(p->pid);
    }

    t = now_ns();
    const SystemCheckpoint ck = master.checkpoint();
    checkpoint_ns_.push_back(now_ns() - t);
    t = now_ns();
    auto fork_or = System::create_from(ck);
    fork_ns_.push_back(now_ns() - t);
    if (!fork_or) throw std::runtime_error("System::create_from: " + fork_or.error());
    sys_ = std::move(fork_or.value());
    runner_ = std::make_unique<GuestRunner>(sys_->kernel());

    // Warm the modelled caches: one untimed quantum per program. The trace
    // hook counts what the interpreter dispatched, so the measured phase's
    // interpreted instruction count is exact.
    warm_insts_.assign(programs_.size(), 0);
    u64 dispatched = 0;
    sys_->core().set_trace_hook(
        [&dispatched](const Core&, u64, const isa::Inst&) { ++dispatched; });
    for (size_t i = 0; i < programs_.size(); ++i) {
      dispatched = 0;
      const Slice s = run_slice(i);
      warm_insts_[i] = dispatched - s.faults;
      if (s.res.exited || s.res.faulted) {
        throw std::runtime_error("guest program ended during warm-up");
      }
    }
    sys_->core().set_trace_hook(nullptr);
  }

  PassOutcome measure(SpanLog& log) override {
    PassOutcome out;
    // The first pass also counts every dispatched instruction (a trace hook
    // costs host time), so it checks the generator's counts and is untimed.
    const bool count_pass = !counted_;
    counted_ = true;
    out.timed = !count_pass;

    Core& core = sys_->core();
    const StatSet before = sys_->report();
    const Cycles c0 = core.cycles();
    const size_t n = programs_.size();
    std::vector<bool> done(n, false);
    std::vector<u64> dispatched(n, 0);
    std::vector<u64> faults(n, 0);
    u64* counter = nullptr;
    if (count_pass) {
      core.set_trace_hook(
          [&counter](const Core&, u64, const isa::Inst&) { ++*counter; });
    }

    const u64 t0 = now_ns();
    {
      SpanScope pass(log, "pass");
      size_t left = n;
      while (left > 0) {
        for (size_t i = 0; i < n; ++i) {
          if (done[i]) continue;
          counter = &dispatched[i];
          Slice s;
          {
            SpanScope span(log, "cpu.run_slice_timed", i);
            s = run_slice(i);
          }
          faults[i] += s.faults;
          if (!s.res.exited && !s.res.faulted) continue;
          done[i] = true;
          --left;
          const GuestProgram& g = programs_[i];
          out.check(!s.res.faulted, "program " + std::to_string(i) + " faulted");
          out.check(s.res.exit_code == g.expected_exit,
                    "program " + std::to_string(i) + " exit code " +
                        std::to_string(s.res.exit_code) + " != host checksum " +
                        std::to_string(g.expected_exit));
        }
      }
    }
    out.wall_s = seconds_since(t0);
    core.set_trace_hook(nullptr);

    u64 interpreted = 0;
    for (size_t i = 0; i < n; ++i) {
      const u64 measured = programs_[i].expected_insts - warm_insts_[i];
      interpreted += measured;
      if (count_pass) {
        out.check(dispatched[i] - faults[i] == measured,
                  "program " + std::to_string(i) + " ran " +
                      std::to_string(dispatched[i] - faults[i] + warm_insts_[i]) +
                      " instructions, generator counted " +
                      std::to_string(programs_[i].expected_insts));
      }
    }
    out.work = static_cast<double>(interpreted);
    out.rates["guest_mips"] = static_cast<double>(interpreted) / out.wall_s * 1e-6;
    out.sim_cycles = core.cycles() - c0;

    const StatSet after = sys_->report();
    Digest d;
    d.add(after);
    out.digest = d.value();
    guest_insts_ = interpreted;
    if (log.enabled()) {
      for (const char* k : kLayerCounters) deltas_[k] = after.get(k) - before.get(k);
    }

    runner_.reset();
    sys_.reset();
    return out;
  }

  void layer_metrics(Metrics& m, const SpanLog& log, unsigned traced) const override {
    const auto d = [this](const char* k) {
      const auto it = deltas_.find(k);
      return it == deltas_.end() ? 0.0 : static_cast<double>(it->second);
    };
    const SpanLog::Totals* cpu = log.find("cpu.run_slice_timed");
    const double busy_ns = cpu != nullptr ? static_cast<double>(cpu->busy_ns) / traced : 0;
    m.add("cpu.guest_insts", static_cast<double>(guest_insts_), "count");
    m.add("cpu.busy_s", busy_ns * 1e-9, "s");
    m.add("cpu.ns_per_inst", busy_ns / static_cast<double>(guest_insts_), "ns");
    m.ratio("cpu.bbcache_hit_ratio", d("bbcache.hits"), d("bbcache.hits") + d("bbcache.misses"),
            "count");
    m.ratio("cpu.itlb_hit_ratio", d("ITLB.hits"), d("ITLB.hits") + d("ITLB.misses"), "count");
    m.ratio("cpu.l1i_miss_ratio", d("L1I.misses"), d("L1I.hits") + d("L1I.misses"), "count");
    m.add("mmu.walks", d("mmu.walks"), "count");
    m.ratio("mmu.walks_per_kinst", d("mmu.walks"), d("core.instret") / 1000, "kinst");
    m.ratio("cache.dtlb_miss_ratio", d("DTLB.misses"), d("DTLB.hits") + d("DTLB.misses"),
            "count");
    m.ratio("cache.l1d_miss_ratio", d("L1D.misses"), d("L1D.hits") + d("L1D.misses"), "count");
    // Kernel work here happens inside run_slice_timed: count it, not time it.
    m.add("kernel.switch_to.count", d("process.switches"), "count");
    m.add("kernel.fault.count", d("process.faults"), "count");
    m.add("system.create.p50_ns", p50_ns(create_ns_), "ns");
    m.add("system.checkpoint.p50_ns", p50_ns(checkpoint_ns_), "ns");
    m.add("system.fork.p50_ns", p50_ns(fork_ns_), "ns");
  }

 private:
  struct Slice {
    GuestResult res;
    u64 faults = 0;  ///< Demand faults taken (each re-dispatches one instruction).
  };

  Slice run_slice(size_t i) {
    Process* p = sys_->kernel().processes().find(pids_[i]);
    if (p == nullptr) throw std::runtime_error("guest process vanished");
    const size_t pages = p->user_pages.size();
    Slice s;
    s.res = runner_->run_slice_timed(*p, kEntry, kQuantum);
    s.faults = p->user_pages.size() - pages;
    return s;
  }

  u64 seed_;
  std::vector<GuestProgram> programs_;
  std::vector<u64> pids_;
  std::vector<u64> warm_insts_;
  std::unique_ptr<System> sys_;
  std::unique_ptr<GuestRunner> runner_;
  bool counted_ = false;
  u64 guest_insts_ = 0;
  std::map<std::string, u64> deltas_;
  std::vector<u64> create_ns_, checkpoint_ns_, fork_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_guest_compute(u64 seed) {
  return std::make_unique<GuestCompute>(seed);
}

}  // namespace perfbench
