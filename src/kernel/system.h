// Top-level facade: one simulated machine (memory + core + firmware) with a
// booted kernel. This is the public entry point for examples, tests, and
// the benchmark harness.
//
//   SystemConfig cfg = SystemConfig::cfi_ptstore();
//   auto sys = System::create(cfg);       // non-throwing factory
//   if (!sys) { log(sys.error()); ... }
//   Process& p = sys.value()->init();
//
// The throwing constructor `System sys(cfg)` remains as a thin wrapper for
// callers that prefer exceptions; it raises std::runtime_error carrying the
// same message create() would return.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/result.h"
#include "kernel/kernel.h"
#include "mem/uart.h"

namespace ptstore {

/// Physical window of the console UART mapped by System.
inline constexpr PhysAddr kUartBase = 0x1001'0000;

/// One misconfigured field, named so callers can report or fix it.
struct ConfigIssue {
  std::string field;    ///< e.g. "core.icache.size_bytes"
  std::string message;  ///< e.g. "must be a power of two (got 3000)"
};

struct SystemConfig {
  u64 dram_size = MiB(512);
  /// Map a console UART at kUartBase and (with PTStore) guard it (§V-F).
  bool console_uart = true;
  /// Number of harts (cores). Every hart gets its own Core — private
  /// L1s/TLBs/branch predictor/decode cache and per-hart satp/privilege —
  /// while DRAM, the L2 (per-core in this model), PMP *policy* (mirrored
  /// banks) and the kernel's host-side state are shared. 1 is the default
  /// and is byte-identical to the historical single-hart machine.
  unsigned nharts = 1;
  CoreConfig core;
  KernelConfig kernel;

  /// Check every field and return *all* problems found (empty when the
  /// config is constructible). System::create runs this before building
  /// anything, so a bad cache geometry reports an issue instead of
  /// tripping an assert inside the Cache constructor.
  std::vector<ConfigIssue> validate() const;

  /// The four evaluation configurations of the paper (§V-D).
  static SystemConfig baseline();     ///< No CFI, no PTStore.
  static SystemConfig cfi();          ///< Clang CFI only.
  static SystemConfig cfi_ptstore();  ///< CFI + PTStore, 64 MiB region.
  static SystemConfig cfi_ptstore_noadj();  ///< CFI + PTStore, 1 GiB region,
                                            ///< adjustments disabled (-Adj).
  /// cfi_ptstore() retargeted at an isolation backend: same machine, same
  /// CFI and region sizing, but the kernel's defense is `k`. This is the
  /// config the differential bench and the `--backend=` driver flag use.
  static SystemConfig for_backend(BackendKind k);
  static SystemConfig dpti() { return for_backend(BackendKind::kDpti); }
  static SystemConfig ptauth() { return for_backend(BackendKind::kPtauth); }
};

/// Point `cfg` at isolation backend `k`: sets kernel.backend and flips the
/// hardware/kernel PTStore mechanism switches to what the backend needs
/// (secure-zone backends keep the PMP + pt-insn machinery on; stock and
/// PTAuth run on an unmodified core). kAuto leaves `cfg` untouched.
void apply_backend(SystemConfig& cfg, BackendKind k);

/// Join validation issues into one "field: message; field: message" line.
std::string describe_issues(const std::vector<ConfigIssue>& issues);

/// Complete state of one simulated machine at a quiesce point: the config
/// it was built from, the core's architectural state, every materialized
/// DRAM frame, and the host-side firmware/kernel bookkeeping. A checkpoint
/// taken once after boot lets the fleet runner fork N shard machines that
/// skip the (identical) boot work — the paper-evaluation campaigns fork
/// hundreds of shards, so boot amortization dominates their setup cost.
///
/// Microarchitectural state (caches, TLBs, branch predictor, decode cache)
/// is deliberately absent: System::checkpoint() quiesces it to cold, so
/// execution after checkpoint() on the original machine is bit-identical to
/// execution after restore() on a fork.
struct SystemCheckpoint {
  SystemConfig config;
  CoreArchState arch;  ///< Hart 0.
  /// Harts 1..N-1, in order (empty on a single-hart machine, so existing
  /// checkpoints keep their meaning).
  std::vector<CoreArchState> extra_arch;
  std::vector<std::pair<u64, std::vector<u8>>> frames;
  SbiMonitor::State sbi;
  Kernel::State kernel;
};

class System {
 public:
  /// Non-throwing factory: validates the whole config (reporting every bad
  /// field at once), then constructs and boots. On failure the Result
  /// carries the reason; nothing is half-built.
  static Result<std::unique_ptr<System>> create(const SystemConfig& cfg);

  /// Throwing wrapper around create() for exception-style callers.
  explicit System(const SystemConfig& cfg);
  ~System();

  PhysMem& mem() { return *mem_; }
  UartDevice& uart() { return uart_; }
  Core& core() { return *core_; }
  SbiMonitor& sbi() { return *sbi_; }
  Kernel& kernel() { return *kernel_; }
  Process& init() { return *kernel_->init_proc(); }
  const SystemConfig& config() const { return cfg_; }

  /// SMP topology. Hart 0 is the boot hart (== core()); secondary harts come
  /// up idle in the kernel address space after boot.
  unsigned nharts() const { return 1 + static_cast<unsigned>(extra_cores_.size()); }
  Core& core(unsigned hart) {
    return hart == 0 ? *core_ : *extra_cores_[hart - 1];
  }

  /// Total cycles elapsed on the core.
  Cycles cycles() const { return core_->cycles(); }

  /// The machine report for benches and postmortems: hart 0's hardware
  /// counters (core(0).merged_stats(): core, caches, TLBs, MMU, branch
  /// predictor) plus the kernel's bank (kernel/process/allocator counters)
  /// and the live-object gauges. Secondary harts' hardware counters are not
  /// included; read them with core(h).merged_stats().
  StatSet report() const;

  /// Zero every telemetry counter on the machine: every hart's bank, the
  /// kernel's bank and its syscall latency histograms. Architectural
  /// state — including cycles/instret — is untouched.
  void clear_stats();

  /// Capture a full-system checkpoint. Quiesces the core's
  /// microarchitectural state (cold caches/TLBs/decode cache) first, so the
  /// machine's own subsequent execution matches a restored fork's exactly.
  SystemCheckpoint checkpoint();

  /// Rewind this machine to `ck`. The checkpoint must come from a machine
  /// with the same configuration. Bumps kernel.checkpoint_restores.
  void restore(const SystemCheckpoint& ck);

  /// Build a machine directly from a checkpoint, skipping kernel boot
  /// entirely: memory frames, CSRs, PMP, and the kernel's host-side state
  /// all come from `ck`. The fork starts with all-zero telemetry except
  /// kernel.checkpoint_restores = 1 (and no kernel.booted), which is how
  /// tests verify the boot was actually skipped.
  static Result<std::unique_ptr<System>> create_from(const SystemCheckpoint& ck);

 private:
  struct Unbooted {};  // Tag: construct members without booting the kernel.
  System(const SystemConfig& cfg, Unbooted);
  /// Boot the kernel + console; returns an error message, empty on success.
  std::string boot_or_error();

  SystemConfig cfg_;
  UartDevice uart_;
  std::unique_ptr<PhysMem> mem_;
  std::unique_ptr<Core> core_;
  std::vector<std::unique_ptr<Core>> extra_cores_;  ///< Harts 1..N-1.
  std::unique_ptr<SbiMonitor> sbi_;
  std::unique_ptr<Kernel> kernel_;
};

}  // namespace ptstore
