// Process management for the kernel model: PCBs in (attackable) normal
// memory, per-process Sv39 address spaces with page tables in the secure
// region, and token lifetime maintenance in fork / context switch / exit —
// the paper's §IV-C4 kernel extensions (copy_mm, switch_mm).
//
// PCB layout in simulated memory (fields the attacks target):
//   +0x00 pid
//   +0x08 pgd        — page-table root pointer (PT-Injection/Reuse target)
//   +0x10 token      — pointer to this process's token in the secure region
//   +0x18 state
//   +0x20 parent pid
//   +0x28 asid
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "kernel/isolation.h"
#include "kernel/pagetable.h"
#include "kernel/token.h"
#include "telemetry/metrics.h"

namespace ptstore {

class Kernel;

inline constexpr u64 kPcbSize = 64;
inline constexpr u64 kPcbPidOff = 0x00;
inline constexpr u64 kPcbPgdOff = 0x08;
inline constexpr u64 kPcbTokenOff = 0x10;
inline constexpr u64 kPcbStateOff = 0x18;
inline constexpr u64 kPcbParentOff = 0x20;
inline constexpr u64 kPcbAsidOff = 0x28;

/// One mapped virtual region of a process.
struct Vma {
  VirtAddr start = 0;
  VirtAddr end = 0;
  u64 prot = 0;  ///< pte permission bits (kR/kW/kX; kU is implied).
};

enum class ProcState : u64 { kRunning = 0, kZombie = 1 };

/// Host-side bookkeeping for one process (the simulated-memory PCB is the
/// architectural source of truth for pgd/token — attacks rewrite those).
struct Process {
  u64 pid = 0;
  PhysAddr pcb = 0;  ///< PCB base address in simulated memory.
  u16 asid = 0;
  std::vector<Vma> vmas;
  std::vector<PhysAddr> pt_pages;  ///< All page-table pages of this mm.
  std::vector<std::pair<VirtAddr, PhysAddr>> user_pages;  ///< Mapped leaf pages.

  PhysAddr pcb_pgd_field() const { return pcb + kPcbPgdOff; }
  PhysAddr pcb_token_field() const { return pcb + kPcbTokenOff; }
};

// SwitchResult lives in kernel/isolation.h (the backend API returns it).

class ProcessManager {
 public:
  /// The process.* counters register in `bank` (the kernel's).
  ProcessManager(KernelMem& kmem, PageTableManager& pt, PageAllocator& pages,
                 IsolationBackend& iso, KmemCache& pcb_cache, const KernelConfig& cfg,
                 PhysAddr kernel_root, telemetry::CounterBank& bank);

  /// Attach the owning kernel: TLB invalidations then go through its
  /// cross-hart shootdown protocol instead of a local-only sfence, and
  /// backend calls carry the executing hart. Null (the default) keeps the
  /// historical local-sfence behavior for kernel-less unit tests.
  void set_kernel(Kernel* k) { k_ = k; }

  /// Create a process with no parent (init) or fork an existing one.
  Process* create_init(PtStatus* st = nullptr);
  Process* fork(Process& parent, PtStatus* st = nullptr);

  /// Replace the address space with a fresh one (execve model): tears down
  /// user mappings, keeps pid/PCB; the backend re-binds its credential.
  bool exec(Process& proc, PtStatus* st = nullptr);

  /// Terminate and reap: frees user pages, page tables, credential, PCB.
  void exit(Process& proc);

  /// Context switch to `proc`: the backend validates the PCB's pgd and
  /// credential, then satp is written and switch costs charged.
  SwitchResult switch_to(Process& proc);

  /// Map a VMA into the process (mmap model). Pages are demand-faulted.
  bool add_vma(Process& proc, VirtAddr start, u64 len, u64 prot);
  /// Remove a VMA and unmap its present pages (munmap model).
  bool remove_vma(Process& proc, VirtAddr start, u64 len);
  /// mprotect model: update VMA prot and rewrite present PTEs.
  bool protect_vma(Process& proc, VirtAddr start, u64 len, u64 prot);

  /// Demand fault: allocate + zero + map one page at va per its VMA.
  /// Returns false if va is outside every VMA (segfault).
  bool handle_fault(Process& proc, VirtAddr va, bool write, PtStatus* st = nullptr);

  Process* find(u64 pid);
  const std::map<u64, std::unique_ptr<Process>>& all() const { return procs_; }
  u64 live_count() const { return procs_.size(); }

  /// The process whose address space is live in satp (last switch_to).
  Process* current() { return current_; }

  /// Architectural pgd of the process as stored in its PCB.
  u64 pcb_pgd(const Process& proc) { return kmem_.must_ld(proc.pcb_pgd_field()); }
  u64 pcb_token(const Process& proc) { return kmem_.must_ld(proc.pcb_token_field()); }

  /// Process-table state for full-system checkpoints. `Process` is a plain
  /// copyable value; `current` is saved by pid (0 = none) since pointers
  /// don't survive a restore.
  struct State {
    std::vector<Process> procs;  ///< Ascending pid order.
    u64 current_pid = 0;
    std::vector<std::pair<PhysAddr, u32>> page_refs;  ///< Ascending address.
    u64 next_pid = 1;
    u16 next_asid = 1;
  };
  State save_state() const;
  void restore_state(const State& st);

 private:
  Process* create_common(Process* parent, PtStatus* st);
  u16 alloc_asid();
  void teardown_mm(Process& proc);
  void dec_page_ref(PhysAddr pa);
  /// Cross-hart TLB shootdown via the kernel; plain local sfence when no
  /// kernel is attached. On a single-hart system both paths are identical.
  void shootdown(std::optional<VirtAddr> va, std::optional<u16> asid);
  /// The hart this manager's kernel is currently executing on (0 without one).
  unsigned hart() const;

  Kernel* k_ = nullptr;
  KernelMem& kmem_;
  PageTableManager& pt_;
  PageAllocator& pages_;
  IsolationBackend& iso_;
  KmemCache& pcb_cache_;
  const KernelConfig& cfg_;
  PhysAddr kernel_root_;

  std::map<u64, std::unique_ptr<Process>> procs_;
  Process* current_ = nullptr;
  /// Shared user-page reference counts. Hashed: only save_state() needs
  /// them in address order, and it sorts.
  std::unordered_map<PhysAddr, u32> page_refs_;
  u64 next_pid_ = 1;
  u16 next_asid_ = 1;

  telemetry::Counter creates_;
  telemetry::Counter forks_;
  telemetry::Counter execs_;
  telemetry::Counter exits_;
  telemetry::Counter switches_;
  telemetry::Counter token_rejects_;
  telemetry::Counter faults_;
};

}  // namespace ptstore
