// kernel_churn: one seeded kernel-op stream replayed on a fresh machine per
// isolation backend at 1 hart, then on ptstore at 2 harts with the ops
// spread across harts. No guest code runs, so host time is the kernel model
// and its page-table mediation.
#include <stdexcept>

#include "analysis/pt_audit.h"
#include "kernel/kmem.h"
#include "kernel/system.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ptstore;

/// Planned ops per stream (the teardown exits are added on top).
constexpr size_t kStreamOps = 24'000;

/// Span names of the timed ops, in ChurnOp::Kind order.
constexpr const char* kOpSpans[kChurnOpKinds] = {
    "kernel.fork",    "kernel.exit",       "kernel.switch_to", "kernel.syscall",
    "kernel.add_vma", "kernel.remove_vma", "kernel.fault",     "kernel.access"};

/// Counters that may only move when an attacker is present.
constexpr const char* kRejectCounters[] = {
    "process.token_rejects", "mmu.ptw_secure_denied", "mmu.ptw_verify_denied",
    "mmu.ptw_pmp_denied", "core.pmp_faults"};

constexpr const char* kLayerCounters[] = {
    "DTLB.hits", "DTLB.misses", "L1D.hits", "L1D.misses", "mmu.walks", "core.instret"};

struct Machine {
  std::string label;  ///< Backend name; "ptstore_2h" for the SMP pass.
  std::unique_ptr<System> sys;
  u64 boot_procs = 0, boot_tokens = 0, boot_pt_pages = 0;
};

SystemConfig churn_config(BackendKind k, unsigned harts) {
  SystemConfig cfg = SystemConfig::for_backend(k);
  cfg.nharts = harts;
  // A small secure region, so the stream's peak population forces growth.
  cfg.kernel.secure_region_init = MiB(1);
  cfg.kernel.adjustment_chunk_pages = 64;
  return cfg;
}

/// All cores' cycles (a machine's simulated time, summed over harts).
u64 total_cycles(System& sys) {
  u64 c = 0;
  for (unsigned h = 0; h < sys.nharts(); ++h) c += sys.core(h).cycles();
  return c;
}

/// report() plus the secondary harts' hardware counters.
StatSet full_report(System& sys) {
  StatSet s = sys.report();
  for (unsigned h = 1; h < sys.nharts(); ++h) {
    const StatSet hart = sys.core(h).merged_stats();
    for (const auto& [k, v] : hart.counters()) {
      s.set("hart" + std::to_string(h) + "." + k, v);
    }
  }
  return s;
}

class KernelChurn : public Workload {
 public:
  explicit KernelChurn(u64 seed) : seed_(seed) {}

  void setup() override {
    stream_ = make_churn_stream(seed_, kStreamOps);
    machines_.clear();
    for (const char* b : kBackends) add_machine(b, *backend_kind_from(b), 1);
    add_machine("ptstore_2h", BackendKind::kPtstore, 2);
  }

  PassOutcome measure(SpanLog& log) override {
    PassOutcome out;
    const bool traced = log.enabled();
    if (traced) deltas_.clear();  // Layer counters of the last traced pass.
    const u64 t0 = now_ns();
    u64 excluded_ns = 0;  // Audits run inside the loop but are not measured.
    {
      SpanScope pass(log, "pass");
      for (Machine& m : machines_) excluded_ns += run_stream(m, log, traced, out);
    }
    out.wall_s = static_cast<double>(now_ns() - t0 - excluded_ns) * 1e-9;
    const double ops = static_cast<double>(stream_.ops.size() * machines_.size());
    out.work = ops;
    out.rates["kernel_ops_per_s"] = ops / out.wall_s;

    Digest d;
    for (Machine& m : machines_) {
      d.add(m.label);
      d.add(full_report(*m.sys));
    }
    out.digest = d.value();
    machines_.clear();
    return out;
  }

  void layer_metrics(Metrics& m, const SpanLog& log, unsigned traced) const override {
    const double per = 1.0 / traced;
    double kernel_busy_ns = 0;
    for (unsigned k = 0; k < kChurnOpKinds; ++k) {
      const SpanLog::Totals* t = log.find(kOpSpans[k]);
      const std::string base = std::string("kernel.") + to_string(static_cast<ChurnOp::Kind>(k));
      std::vector<double> ns;
      if (t != nullptr) {
        ns.assign(t->durations_ns.begin(), t->durations_ns.end());
        kernel_busy_ns += static_cast<double>(t->busy_ns);
      }
      m.add(base + ".count", t != nullptr ? static_cast<double>(t->count) * per : 0, "count");
      m.add(base + ".busy_s", t != nullptr ? static_cast<double>(t->busy_ns) * per * 1e-9 : 0,
            "s");
      m.add(base + ".p50_ns", quantile(ns, 0.50), "ns");
      m.add(base + ".p99_ns", quantile(ns, 0.99), "ns");
      m.add(base + ".failed", static_cast<double>(op_failed_[k]) * per, "count");
    }
    m.add("kernel.busy_s", kernel_busy_ns * per * 1e-9, "s");
    m.add("kernel.grow.count", static_cast<double>(grows_) * per, "count");
    m.add("kernel.shootdown.count", static_cast<double>(shootdowns_) * per, "count");
    m.add("kernel.shootdown.busy_s", static_cast<double>(shootdown_ns_) * per * 1e-9, "s");
    for (const char* b : kBackends) {
      const auto it = backend_ns_.find(b);
      const double busy = it != backend_ns_.end() ? static_cast<double>(it->second) * per * 1e-9 : 0;
      const std::string base = std::string("backend.") + b;
      m.add(base + ".busy_s", busy, "s");
      m.add(base + ".kernel_ops_per_s",
            busy > 0 ? static_cast<double>(stream_ops_) / busy : 0, "1/s");
      const auto c = backend_cycles_.find(b);
      m.add(base + ".sim_cycles", c != backend_cycles_.end() ? static_cast<double>(c->second) : 0,
            "cycles");
    }
    const auto d = [this](const char* k) {
      const auto it = deltas_.find(k);
      return it == deltas_.end() ? 0.0 : static_cast<double>(it->second);
    };
    m.add("mmu.walks", d("mmu.walks"), "count");
    m.ratio("mmu.walks_per_kinst", d("mmu.walks"), d("core.instret") / 1000, "kinst");
    m.ratio("cache.dtlb_miss_ratio", d("DTLB.misses"), d("DTLB.hits") + d("DTLB.misses"),
            "count");
    m.ratio("cache.l1d_miss_ratio", d("L1D.misses"), d("L1D.hits") + d("L1D.misses"), "count");
    m.add("system.create.p50_ns", p50_ns(create_ns_), "ns");
  }

 private:
  void add_machine(const std::string& label, BackendKind k, unsigned harts) {
    const u64 t = now_ns();
    auto sys_or = System::create(churn_config(k, harts));
    create_ns_.push_back(now_ns() - t);
    if (!sys_or) throw std::runtime_error("System::create(" + label + "): " + sys_or.error());
    Machine m;
    m.label = label;
    m.sys = std::move(sys_or.value());
    Kernel& kern = m.sys->kernel();
    m.boot_procs = kern.processes().live_count();
    m.boot_tokens = kern.token_cache().objects_in_use();
    m.boot_pt_pages = kern.pagetables().pt_pages_allocated();
    machines_.push_back(std::move(m));
  }

  /// Replay the stream on `m`; returns the host ns spent in audits.
  u64 run_stream(Machine& m, SpanLog& log, bool traced, PassOutcome& out) {
    System& sys = *m.sys;
    Kernel& k = sys.kernel();
    ProcessManager& pm = k.processes();
    const bool smp = sys.nharts() > 1;
    const StatSet before = traced ? full_report(sys) : StatSet{};
    const u64 cycles0 = total_cycles(sys);
    const u64 adjust0 = k.adjustments();
    const u64 shoot0 = k.shootdowns();
    std::vector<Process*> slot(stream_.slots, nullptr);
    slot[0] = &sys.init();
    u64 busy_ns = 0;
    u64 audit_ns = 0;
    const std::string where = " on " + m.label;

    auto audit = [&](const char* when) {
      const u64 t = now_ns();
      SpanScope span(log, "check.audit");
      const analysis::AuditReport r = analysis::audit_secure_region(k, sys.mem());
      out.check(r.ok(), std::string("secure-region audit ") + when + where + ": " +
                            (r.ok() ? "" : r.findings.front()));
      audit_ns += now_ns() - t;
    };

    for (size_t i = 0; i < stream_.ops.size(); ++i) {
      const ChurnOp& op = stream_.ops[i];
      const unsigned kind = static_cast<unsigned>(op.kind);
      Process* p = slot[op.slot];
      if (p == nullptr) {
        out.check(false, "op " + std::to_string(i) + " names a dead process" + where);
        continue;
      }
      if (smp) k.set_active_hart(op.hart);
      const u64 shoot_before = traced ? k.shootdowns() : 0;
      bool ok = false;
      try {
        SpanScope span(log, kOpSpans[kind], i);
        ok = exec_op(op, k, pm, *p, slot);
      } catch (const KernelPanic& e) {
        out.check(false,
                  std::string("kernel panic in ") + to_string(op.kind) + where + ": " + e.what());
        continue;
      }
      ++out.attempted;
      if (!ok) {
        const std::string what = op.kind == ChurnOp::Kind::kSyscall
                                     ? std::string("syscall ") + to_string(static_cast<Sys>(op.sys))
                                     : to_string(op.kind);
        out.fail(what + " op " + std::to_string(i) + " returned an unexpected result" + where);
      }
      if (traced) {
        const u64 dur = log.last_ns();
        busy_ns += dur;
        if (k.shootdowns() != shoot_before) shootdown_ns_ += dur;
        if (!ok) ++op_failed_[kind];
      }
      if (i + 1 == stream_.peak_op) audit("at peak population");
    }
    if (smp) k.set_active_hart(0);
    audit("after teardown");

    out.check(pm.live_count() == m.boot_procs, "live processes not back to boot count" + where);
    out.check(k.token_cache().objects_in_use() == m.boot_tokens,
              "live tokens not back to boot count" + where);
    out.check(k.pagetables().pt_pages_allocated() == m.boot_pt_pages,
              "PT pages not back to boot count" + where);
    const StatSet after = full_report(sys);
    for (const char* c : kRejectCounters) {
      out.check(after.get(c) == 0, std::string(c) + " fired without an attacker" + where);
    }
    out.sim_cycles += total_cycles(sys) - cycles0;
    if (k.iso().allow_adjustment) {
      out.check(k.adjustments() > adjust0, "secure region never grew" + where);
    }

    if (traced) {
      grows_ += k.adjustments() - adjust0;
      shootdowns_ += k.shootdowns() - shoot0;
      if (!smp) {
        backend_ns_[m.label] += busy_ns;
        backend_cycles_[m.label] = total_cycles(sys) - cycles0;
      }
      for (const char* c : kLayerCounters) deltas_[c] += after.get(c) - before.get(c);
      stream_ops_ = stream_.ops.size();
    }
    return audit_ns;
  }

  /// Execute one op; true when it returned what the generator expects.
  static bool exec_op(const ChurnOp& op, Kernel& k, ProcessManager& pm, Process& p,
                      std::vector<Process*>& slot) {
    switch (op.kind) {
      case ChurnOp::Kind::kFork:
        slot[op.child] = pm.fork(p);
        return slot[op.child] != nullptr;
      case ChurnOp::Kind::kExit:
        slot[op.slot] = nullptr;
        pm.exit(p);
        return true;
      case ChurnOp::Kind::kSwitch:
        return pm.switch_to(p) == SwitchResult::kOk;
      case ChurnOp::Kind::kSyscall:
        return k.syscall(p, static_cast<Sys>(op.sys));
      case ChurnOp::Kind::kMmap:
        return pm.add_vma(p, op.va, op.len, pte::kR | pte::kW);
      case ChurnOp::Kind::kMunmap:
        return pm.remove_vma(p, op.va, op.len);
      case ChurnOp::Kind::kFaultWrite:
      case ChurnOp::Kind::kReadMapped: {
        const bool fault = op.kind == ChurnOp::Kind::kFaultWrite;
        const size_t pages = p.user_pages.size();
        return k.user_access(p, op.va, fault) && p.user_pages.size() == pages + (fault ? 1 : 0);
      }
    }
    return false;
  }

  u64 seed_;
  ChurnStream stream_;
  std::vector<Machine> machines_;
  // Traced-pass accumulators.
  u64 op_failed_[kChurnOpKinds] = {};
  u64 grows_ = 0, shootdowns_ = 0, shootdown_ns_ = 0, stream_ops_ = 0;
  std::map<std::string, u64> backend_ns_, backend_cycles_, deltas_;
  std::vector<u64> create_ns_;
};

}  // namespace

std::unique_ptr<Workload> make_kernel_churn(u64 seed) {
  return std::make_unique<KernelChurn>(seed);
}

}  // namespace perfbench
