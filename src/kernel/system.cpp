#include "kernel/system.h"

#include <sstream>

#include "kernel/isolation.h"

namespace ptstore {

namespace {

bool pow2(u64 v) { return v != 0 && (v & (v - 1)) == 0; }

void validate_cache(std::vector<ConfigIssue>& out, const std::string& field,
                    const CacheConfig& c) {
  if (!pow2(c.size_bytes)) {
    out.push_back({field + ".size_bytes", "must be a nonzero power of two"});
  }
  if (!pow2(c.line_bytes)) {
    out.push_back({field + ".line_bytes", "must be a nonzero power of two"});
  }
  if (c.ways < 1) {
    out.push_back({field + ".ways", "must be at least 1"});
    return;  // The remaining checks divide by ways.
  }
  if (pow2(c.size_bytes) && pow2(c.line_bytes)) {
    const u64 lines = c.size_bytes / c.line_bytes;
    if (lines == 0 || lines % c.ways != 0 || !pow2(lines / c.ways)) {
      out.push_back({field + ".ways",
                     "sets (size/line/ways) must be a whole power of two"});
    }
  }
}

}  // namespace

std::string describe_issues(const std::vector<ConfigIssue>& issues) {
  std::ostringstream os;
  for (size_t i = 0; i < issues.size(); ++i) {
    if (i != 0) os << "; ";
    os << issues[i].field << ": " << issues[i].message;
  }
  return os.str();
}

std::vector<ConfigIssue> SystemConfig::validate() const {
  std::vector<ConfigIssue> out;
  if (dram_size == 0 || !is_aligned(dram_size, kPageSize)) {
    out.push_back({"dram_size", "must be a nonzero multiple of the 4 KiB page"});
  } else if (dram_size < MiB(1)) {
    out.push_back({"dram_size", "must be at least 1 MiB to hold the kernel"});
  }
  validate_cache(out, "core.icache", core.icache);
  validate_cache(out, "core.dcache", core.dcache);
  if (core.l2_enabled) validate_cache(out, "core.l2", core.l2);
  if (core.itlb.entries == 0) {
    out.push_back({"core.itlb.entries", "must be at least 1"});
  }
  if (core.dtlb.entries == 0) {
    out.push_back({"core.dtlb.entries", "must be at least 1"});
  }
  if (core.timing.base_cpi == 0) {
    out.push_back({"core.timing.base_cpi", "must be at least 1"});
  }
  if (nharts < 1 || nharts > 8) {
    out.push_back({"nharts", "must be between 1 and 8"});
  }
  if (!is_aligned(core.reset_pc, 2)) {
    out.push_back({"core.reset_pc", "must be 2-byte aligned (IALIGN=16)"});
  } else if (core.reset_pc < kDramBase || core.reset_pc >= kDramBase + dram_size) {
    out.push_back({"core.reset_pc", "must point into DRAM"});
  }
  if (IsolationConfig::resolve(kernel).secure_zone) {
    if (kernel.secure_region_init == 0) {
      out.push_back({"kernel.secure_region_init",
                     "must be nonzero when the backend uses a secure zone"});
    } else if (!is_aligned(kernel.secure_region_init, kPageSize)) {
      out.push_back({"kernel.secure_region_init", "must be page-aligned"});
    } else if (kernel.secure_region_init > dram_size / 2) {
      out.push_back({"kernel.secure_region_init",
                     "must not exceed half of dram_size"});
    }
  }
  return out;
}

SystemConfig SystemConfig::baseline() {
  SystemConfig cfg;
  cfg.core.ptstore_enabled = false;
  cfg.kernel.ptstore = false;
  cfg.kernel.cfi = false;
  return cfg;
}

SystemConfig SystemConfig::cfi() {
  SystemConfig cfg = baseline();
  cfg.kernel.cfi = true;
  return cfg;
}

SystemConfig SystemConfig::cfi_ptstore() {
  SystemConfig cfg;
  cfg.core.ptstore_enabled = true;
  cfg.kernel.ptstore = true;
  cfg.kernel.cfi = true;
  cfg.kernel.secure_region_init = MiB(64);
  return cfg;
}

void apply_backend(SystemConfig& cfg, BackendKind k) {
  if (k == BackendKind::kAuto) return;
  cfg.kernel.backend = k;
  // DPTI reuses the PMP secure zone + pt-insn store path; stock and PTAuth
  // run on an unmodified core (PTAuth's machinery is the MAC + walker).
  const bool secure = k == BackendKind::kPtstore || k == BackendKind::kDpti;
  cfg.kernel.ptstore = secure;
  cfg.core.ptstore_enabled = secure;
}

SystemConfig SystemConfig::for_backend(BackendKind k) {
  SystemConfig cfg = cfi_ptstore();
  apply_backend(cfg, k);
  return cfg;
}

SystemConfig SystemConfig::cfi_ptstore_noadj() {
  SystemConfig cfg = cfi_ptstore();
  // The -Adj configuration of §V-D1: a 1 GiB region sized so no adjustment
  // ever triggers (scaled to DRAM if the machine is smaller than 2 GiB).
  cfg.kernel.secure_region_init = std::min<u64>(GiB(1), cfg.dram_size / 2);
  cfg.kernel.allow_adjustment = false;
  return cfg;
}

System::System(const SystemConfig& cfg, Unbooted) : cfg_(cfg) {
  mem_ = std::make_unique<PhysMem>(kDramBase, cfg.dram_size);
  if (cfg.console_uart) mem_->map_device(kUartBase, UartDevice::kWindowSize, &uart_);
  core_ = std::make_unique<Core>(*mem_, cfg.core);
  sbi_ = std::make_unique<SbiMonitor>(*core_);
  // Secondary harts: private Core (L1s/TLBs/bpred/bbcache) over the shared
  // PhysMem. They must be registered with firmware and kernel before boot so
  // PMP mirroring and the shootdown protocol cover them.
  for (unsigned h = 1; h < cfg.nharts; ++h) {
    extra_cores_.push_back(std::make_unique<Core>(*mem_, cfg.core));
    extra_cores_.back()->set_hartid(h);
    sbi_->add_hart(*extra_cores_.back());
  }
  kernel_ = std::make_unique<Kernel>(*core_, *sbi_, cfg.kernel);
  for (auto& c : extra_cores_) kernel_->add_hart(*c);
  // Metadata for the gauges report() sets directly, so JSON reports carry
  // their units/descriptions like every bank-backed counter.
  auto& reg = telemetry::MetricsRegistry::instance();
  reg.intern("kernel.pt_pages_live", "page-table pages currently allocated",
             "pages");
  reg.intern("kernel.tokens_live", "tokens currently in use", "tokens");
  reg.intern("kernel.processes_live", "live processes", "processes");
  reg.intern("sbi.secure_region_bytes", "secure-region size", "bytes");
}

std::string System::boot_or_error() {
  if (!kernel_->boot()) {
    return "PTStore system failed to boot; check DRAM size vs. secure-region "
           "configuration";
  }
  if (cfg_.console_uart && !kernel_->attach_console(kUartBase)) {
    return "console UART attachment failed";
  }
  return {};
}

Result<std::unique_ptr<System>> System::create(const SystemConfig& cfg) {
  using R = Result<std::unique_ptr<System>>;
  const std::vector<ConfigIssue> issues = cfg.validate();
  if (!issues.empty()) return R::failure(describe_issues(issues));
  auto sys = std::unique_ptr<System>(new System(cfg, Unbooted{}));
  if (std::string err = sys->boot_or_error(); !err.empty()) {
    return R::failure(std::move(err));
  }
  return R::success(std::move(sys));
}

namespace {
// Runs before the delegating constructor builds any member, so an invalid
// cache geometry throws here instead of tripping asserts inside Cache.
const SystemConfig& throw_if_invalid(const SystemConfig& cfg) {
  const std::vector<ConfigIssue> issues = cfg.validate();
  if (!issues.empty()) throw std::runtime_error(describe_issues(issues));
  return cfg;
}
}  // namespace

System::System(const SystemConfig& cfg)
    : System(throw_if_invalid(cfg), Unbooted{}) {
  if (std::string err = boot_or_error(); !err.empty()) {
    throw std::runtime_error(err);
  }
}

System::~System() = default;

void System::clear_stats() {
  for (unsigned h = 0; h < nharts(); ++h) core(h).clear_stats();
  kernel_->counters().clear();
  kernel_->clear_latency();
}

SystemCheckpoint System::checkpoint() {
  // Quiesce: round-tripping the architectural state through restore resets
  // caches/TLBs/decode cache to cold, the same state a fork restores into.
  core_->restore_arch_state(core_->arch_state());
  for (auto& c : extra_cores_) c->restore_arch_state(c->arch_state());
  SystemCheckpoint ck;
  ck.config = cfg_;
  ck.arch = core_->arch_state();
  for (auto& c : extra_cores_) ck.extra_arch.push_back(c->arch_state());
  ck.frames = mem_->snapshot_frames();
  ck.sbi = sbi_->save_state();
  ck.kernel = kernel_->save_state();
  return ck;
}

void System::restore(const SystemCheckpoint& ck) {
  // Frames first: restore_arch_state re-syncs the decode cache's frame-table
  // generation, so the memory image must already be in place.
  mem_->restore_frames(ck.frames);
  core_->restore_arch_state(ck.arch);
  for (size_t h = 0; h < extra_cores_.size(); ++h) {
    // A checkpoint from a smaller machine leaves the surplus harts where
    // construction put them; same-config forks (the fleet path) always carry
    // one entry per secondary hart.
    if (h < ck.extra_arch.size()) {
      extra_cores_[h]->restore_arch_state(ck.extra_arch[h]);
    }
  }
  sbi_->restore_state(ck.sbi);
  kernel_->restore_state(ck.kernel);
}

Result<std::unique_ptr<System>> System::create_from(const SystemCheckpoint& ck) {
  using R = Result<std::unique_ptr<System>>;
  const std::vector<ConfigIssue> issues = ck.config.validate();
  if (!issues.empty()) return R::failure(describe_issues(issues));
  if (!ck.kernel.booted) {
    return R::failure("checkpoint does not carry a booted kernel");
  }
  auto sys = std::unique_ptr<System>(new System(ck.config, Unbooted{}));
  sys->restore(ck);
  return R::success(std::move(sys));
}

StatSet System::report() const {
  StatSet out = core_->merged_stats();
  out.merge(kernel_->counters().snapshot());
  out.set("kernel.pt_pages_live", kernel_->pagetables().pt_pages_allocated());
  out.set("kernel.tokens_live", kernel_->token_cache().objects_in_use());
  out.set("kernel.processes_live", kernel_->processes().live_count());
  if (sbi_->initialized()) {
    out.set("sbi.secure_region_bytes", sbi_->sr_get().size());
  }
  return out;
}

}  // namespace ptstore
