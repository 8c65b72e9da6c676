// Kernel facade: boots the machine model (SBI → secure region → zones →
// swapper page table → satp with the S-bit → init process) and exposes the
// subsystems plus a syscall layer for the workload drivers.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "kernel/kconfig.h"
#include "kernel/process.h"
#include "sbi/sbi.h"
#include "telemetry/metrics.h"

namespace ptstore {

/// Syscall kinds modelled by the kernel (the LMBench-relevant surface plus
/// what the macro workloads need).
enum class Sys : u8 {
  kNull = 0,   ///< Minimal syscall (LMBench "null": getppid).
  kRead,       ///< 1-byte read from /dev/zero.
  kWrite,      ///< 1-byte write to /dev/null.
  kStat,       ///< Path lookup + stat.
  kFstat,      ///< stat on open fd.
  kOpenClose,  ///< open + close of a file.
  kSelect,     ///< select on 10 fds.
  kSigInstall, ///< sigaction.
  kSigHandle,  ///< Signal delivery + handler return.
  kPipe,       ///< Pipe round-trip (two processes).
  kFork,       ///< fork + wait + child exit.
  kForkExec,   ///< fork + execve + wait.
  kMmap,       ///< mmap of a region.
  kMunmap,
  kMprotect,
  kBrk,
  kGetpid,
  kSendRecv,   ///< Socket send+recv pair (NGINX/Redis model).
  kAcceptClose,///< accept + close of a connection.
};

const char* to_string(Sys s);

/// Per-syscall cost model: abstract kernel-body instructions and the number
/// of CFI-instrumented indirect calls on the path. The *structural* work
/// (allocations, page-table writes, token ops, satp updates) is performed
/// for real by the subsystems and charged through the architectural access
/// path — these constants cover only the remaining straight-line kernel code.
struct SyscallCost {
  u64 body_instrs = 0;
  u64 indirect_calls = 0;
};

SyscallCost syscall_cost(Sys s);

class Kernel {
 public:
  Kernel(Core& core, SbiMonitor& sbi, const KernelConfig& cfg);
  ~Kernel();

  /// Boot the kernel. Must be called exactly once before anything else.
  /// Returns false if the machine is too small for the configuration.
  bool boot();

  // ---- subsystems ----
  KernelMem& kmem() { return *kmem_; }
  PageAllocator& pages() { return *pages_; }
  PageTableManager& pagetables() { return *pt_; }
  TokenManager& tokens() { return *tokens_; }
  ProcessManager& processes() { return *pm_; }
  KmemCache& token_cache() { return *token_cache_; }
  KmemCache& pcb_cache() { return *pcb_cache_; }
  const KernelConfig& config() const { return cfg_; }
  /// The hart the kernel is currently executing on. All cycle charges and
  /// simulated accesses land here; on a single-hart system this is the boot
  /// core, always.
  Core& core() { return *harts_[active_hart_]; }
  SbiMonitor& sbi() { return sbi_; }

  // ---- SMP ----
  /// Register a secondary hart. Must happen before boot() so the walk
  /// verifier, satp, and privilege reach every hart.
  void add_hart(Core& core) { harts_.push_back(&core); }
  unsigned nharts() const { return static_cast<unsigned>(harts_.size()); }
  Core& hart(unsigned h) { return *harts_[h]; }
  unsigned active_hart() const { return active_hart_; }
  /// Move kernel execution to hart `h`: subsequent protocol ops, syscalls,
  /// and probes run (and charge cycles) on that hart's core.
  void set_active_hart(unsigned h);

  /// Cross-hart TLB shootdown (Linux flush_tlb_range analog): local sfence,
  /// then an IPI to every remote hart whose handler sfences and acks while
  /// the initiator spin-waits. On a single-hart system this is exactly a
  /// local `sfence(va, asid)` — no extra cycles, no IPIs.
  void tlb_shootdown(std::optional<VirtAddr> va, std::optional<u16> asid);

  /// Retire an address space (exec/exit teardown): ASID-scoped shootdown
  /// plus the leave_mm() leg — any remote hart still lazily holding the dead
  /// root in satp is repointed at the kernel page table. `root` may be 0
  /// when the caller does not track it (single-hart fast path).
  void retire_mm(u16 asid, PhysAddr root);

  /// Initiator-side spin cycles charged per remote hart acked.
  static constexpr Cycles kShootdownAckWait = 120;

  u64 shootdowns() const { return shootdowns_; }
  u64 ipis_sent() const { return ipis_sent_; }

  /// The page-table isolation backend (valid after boot()/restore_state()).
  IsolationBackend& isolation() { return *backend_; }
  /// The backend's capability sheet, resolved at construction time. This is
  /// the query point that replaces scattered `config().ptstore && ...`
  /// mechanism tests.
  const IsolationConfig& iso() const { return iso_; }

  Process* init_proc() { return init_; }
  PhysAddr kernel_root() const { return kernel_root_; }

  /// Secure-region growth (the PageAllocator's PTStore-zone grow hook):
  /// alloc_contig_range adjacent to the boundary, donate to the PTStore
  /// zone, move the PMP boundary via SBI (paper §IV-C1).
  bool grow_secure_region(unsigned order);
  u64 adjustments() const { return adjustments_; }

  /// Execute one syscall for `proc`: trap entry/exit, CFI checks, the
  /// syscall body cost, and the real subsystem work. Returns false when the
  /// operation legitimately failed (e.g. OOM).
  bool syscall(Process& proc, Sys s);

  /// Simulate one user-mode access at `va` (8 bytes): U-mode translation
  /// through the real MMU; on a page fault the kernel demand-pages and
  /// retries. Returns false on segfault.
  bool user_access(Process& proc, VirtAddr va, bool write);

  /// Charge `n` CFI indirect-call checks (kernel-mode code only).
  void cfi_charge(u64 n) {
    if (cfg_.cfi) core().add_cycles(n * cfg_.cfi_check_cost);
  }

  /// Charge the kernel trap entry/exit path (ecall or fault).
  void charge_trap_roundtrip();

  /// The kernel's one counter store: kernel.*, plus the process.* and
  /// page_alloc.* counters of its ProcessManager and PageAllocator.
  telemetry::CounterBank& counters() { return bank_; }
  const telemetry::CounterBank& counters() const { return bank_; }

  /// Attach the console UART at `uart_base` (mapped by System). With
  /// PTStore active the window is placed under a guard region (§V-F), so
  /// only the sd.pt-compiled driver path below may transmit.
  bool attach_console(PhysAddr uart_base);
  /// Transmit `bytes` through the UART driver. Returns false if a byte
  /// write faulted (or no console is attached).
  bool console_write(const std::string& bytes);
  PhysAddr console_base() const { return uart_base_; }

  /// Opt-in per-syscall latency collection (cycles per call), for the
  /// tail-latency bench. Off by default — recording is cheap but not free.
  void enable_latency_collection(bool on) { collect_latency_ = on; }
  const std::map<Sys, Histogram>& syscall_latency() const { return latency_; }
  void clear_latency() { latency_.clear(); }

  /// Host-side kernel state for full-system checkpoints. Everything the
  /// simulated kernel keeps *outside* simulated memory: allocator free
  /// lists, slab bookkeeping, the process table, and the boot-derived
  /// addresses. Simulated-memory contents (PCBs, page tables, tokens) are
  /// captured separately via PhysMem frames.
  struct State {
    BuddyZone::State normal_zone;
    BuddyZone::State ptstore_zone;
    PageTableManager::State pagetables;
    KmemCache::State token_cache;
    KmemCache::State pcb_cache;
    ProcessManager::State processes;
    BackendState backend;
    PhysAddr kernel_root = 0;
    PhysAddr uart_base = 0;
    u64 init_pid = 0;
    u64 adjustments = 0;
    bool booted = false;
  };
  /// Capture the current state. Requires a booted kernel.
  State save_state() const;
  /// Rebuild the subsystems from `st` without re-running boot: no SBI
  /// calls, no satp write, no slab constructors — the architectural side of
  /// the checkpoint (memory frames, CSRs, PMP) is restored by the caller.
  /// The latency histogram resets; collection stays off.
  void restore_state(const State& st);

 private:
  bool syscall_impl(Process& proc, Sys s);

  Core& core_;  ///< Boot hart (== harts_[0]).
  std::vector<Core*> harts_;
  unsigned active_hart_ = 0;
  u64 shootdowns_ = 0;  ///< Plain members, not interned counters: the
  u64 ipis_sent_ = 0;   ///< single-hart report key set must not change.
  SbiMonitor& sbi_;
  KernelConfig cfg_;
  IsolationConfig iso_;
  telemetry::CounterBank bank_;  ///< Declared before the subsystems using it.

  std::unique_ptr<KernelMem> kmem_;
  std::unique_ptr<IsolationBackend> backend_;
  std::unique_ptr<PageAllocator> pages_;
  std::unique_ptr<PageTableManager> pt_;
  std::unique_ptr<KmemCache> token_cache_;
  std::unique_ptr<KmemCache> pcb_cache_;
  std::unique_ptr<TokenManager> tokens_;
  std::unique_ptr<ProcessManager> pm_;

  PhysAddr kernel_root_ = 0;
  PhysAddr uart_base_ = 0;
  Process* init_ = nullptr;
  u64 adjustments_ = 0;
  bool booted_ = false;
  bool collect_latency_ = false;
  std::map<Sys, Histogram> latency_;

  telemetry::Counter booted_count_;
  telemetry::Counter restored_count_;
  telemetry::Counter sr_adjustments_;
  telemetry::Counter traps_;
  telemetry::Counter syscalls_;
};

}  // namespace ptstore
