#include "kernel/process.h"

#include <algorithm>
#include <cassert>

#include "common/bits.h"
#include "kernel/kernel.h"
#include "telemetry/trace.h"

namespace ptstore {

namespace {
/// Abstract kernel bookkeeping cost (scheduler, accounting) per context
/// switch, beyond the modelled memory/CSR work.
constexpr u64 kSwitchBodyInstrs = 600;
}  // namespace

ProcessManager::ProcessManager(KernelMem& kmem, PageTableManager& pt,
                               PageAllocator& pages, IsolationBackend& iso,
                               KmemCache& pcb_cache, const KernelConfig& cfg,
                               PhysAddr kernel_root, telemetry::CounterBank& bank)
    : kmem_(kmem),
      pt_(pt),
      pages_(pages),
      iso_(iso),
      pcb_cache_(pcb_cache),
      cfg_(cfg),
      kernel_root_(kernel_root),
      creates_(bank.counter("process.creates", "processes created")),
      forks_(bank.counter("process.forks", "forks")),
      execs_(bank.counter("process.execs", "execs")),
      exits_(bank.counter("process.exits", "process exits")),
      switches_(bank.counter("process.switches", "context switches")),
      token_rejects_(bank.counter("process.token_rejects",
                                  "context switches refused by token validation")),
      faults_(bank.counter("process.faults", "demand page faults handled")) {}

void ProcessManager::shootdown(std::optional<VirtAddr> va, std::optional<u16> asid) {
  if (k_ != nullptr) {
    k_->tlb_shootdown(va, asid);
  } else {
    kmem_.core().mmu().sfence(va, asid);
  }
}

unsigned ProcessManager::hart() const {
  return k_ != nullptr ? k_->active_hart() : 0;
}

u16 ProcessManager::alloc_asid() {
  if (next_asid_ >= 0x3FFF) {
    // ASID space wrapped: flush all non-global translations — on every hart,
    // since recycled ASIDs would otherwise hit stale entries in remote TLBs.
    shootdown(std::nullopt, std::nullopt);
    next_asid_ = 1;
  }
  return next_asid_++;
}

Process* ProcessManager::create_common(Process* parent, PtStatus* st) {
  PtStatus local;
  if (st == nullptr) st = &local;

  const auto pcb = pcb_cache_.alloc();
  if (!pcb) {
    *st = PtStatus{false, false, true, isa::TrapCause::kNone};
    return nullptr;
  }

  auto proc = std::make_unique<Process>();
  proc->pid = next_pid_++;
  proc->pcb = *pcb;
  proc->asid = alloc_asid();

  const auto root = pt_.create_user_root(kernel_root_, &proc->pt_pages, st);
  if (!root) {
    pcb_cache_.free(*pcb);
    return nullptr;
  }

  kmem_.must_sd(proc->pcb + kPcbPidOff, proc->pid);
  kmem_.must_sd(proc->pcb + kPcbPgdOff, *root);
  kmem_.must_sd(proc->pcb + kPcbStateOff, static_cast<u64>(ProcState::kRunning));
  kmem_.must_sd(proc->pcb + kPcbParentOff, parent != nullptr ? parent->pid : 0);
  kmem_.must_sd(proc->pcb + kPcbAsidOff, proc->asid);

  if (!iso_.bind_root(*proc, *root, st)) {
    teardown_mm(*proc);
    pcb_cache_.free(*pcb);
    return nullptr;
  }

  Process* raw = proc.get();
  procs_.emplace(proc->pid, std::move(proc));
  *st = PtStatus::success();
  return raw;
}

Process* ProcessManager::create_init(PtStatus* st) {
  creates_.add();
  return create_common(nullptr, st);
}

Process* ProcessManager::fork(Process& parent, PtStatus* st) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "copy_mm");
  PtStatus local;
  if (st == nullptr) st = &local;
  Process* child = create_common(&parent, st);
  if (child == nullptr) return nullptr;
  forks_.add();

  // copy_mm (§IV-C4): duplicate the VMA list and the present user mappings.
  // Physical pages are shared (COW-without-the-copy model); page tables are
  // real per-child structures allocated from the secure region.
  child->vmas = parent.vmas;
  const u64 child_root = pcb_pgd(*child);
  for (const auto& [va, pa] : parent.user_pages) {
    const Vma* vma = nullptr;
    for (const auto& v : parent.vmas) {
      if (va >= v.start && va < v.end) {
        vma = &v;
        break;
      }
    }
    const u64 prot = (vma != nullptr ? vma->prot : (pte::kR | pte::kW)) | pte::kU |
                     pte::kA | pte::kD;
    const PtStatus ms = pt_.map_page(child_root, va, pa, prot, &child->pt_pages);
    if (!ms.ok) {
      *st = ms;
      exit(*child);
      return nullptr;
    }
    child->user_pages.emplace_back(va, pa);
    ++page_refs_[pa];
  }
  return child;
}

bool ProcessManager::exec(Process& proc, PtStatus* st) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "execve");
  PtStatus local;
  if (st == nullptr) st = &local;
  execs_.add();

  const u64 old_cred = pcb_token(proc);
  // The dying root only matters for the cross-hart leave_mm leg; skip the
  // extra PCB load on single-hart machines so their cycle traces (and thus
  // campaign reports) are unchanged.
  u64 old_root = 0;
  if (k_ != nullptr && k_->nharts() > 1) old_root = pcb_pgd(proc);
  teardown_mm(proc);
  proc.vmas.clear();

  const auto root = pt_.create_user_root(kernel_root_, &proc.pt_pages, st);
  if (!root) return false;
  kmem_.must_sd(proc.pcb_pgd_field(), *root);

  if (!iso_.rebind_root(proc, old_cred, *root, hart())) return false;
  if (k_ != nullptr) {
    k_->retire_mm(proc.asid, old_root);
  } else {
    kmem_.core().mmu().sfence(std::nullopt, proc.asid);
  }
  return true;
}

void ProcessManager::dec_page_ref(PhysAddr pa) {
  auto it = page_refs_.find(pa);
  assert(it != page_refs_.end());
  if (--it->second == 0) {
    page_refs_.erase(it);
    pages_.free_pages(pa, 0);
  }
}

void ProcessManager::teardown_mm(Process& proc) {
  for (const auto& [va, pa] : proc.user_pages) {
    (void)va;
    dec_page_ref(pa);
  }
  proc.user_pages.clear();
  for (const PhysAddr p : proc.pt_pages) pt_.free_pt_page(p);
  proc.pt_pages.clear();
  kmem_.must_sd(proc.pcb_pgd_field(), 0);
}

void ProcessManager::exit(Process& proc) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "exit_mm");
  exits_.add();
  if (current_ == &proc) current_ = nullptr;
  const u64 cred = pcb_token(proc);
  u64 old_root = 0;
  if (k_ != nullptr && k_->nharts() > 1) old_root = pcb_pgd(proc);
  teardown_mm(proc);
  iso_.unbind_root(proc, cred);
  kmem_.must_sd(proc.pcb + kPcbStateOff, static_cast<u64>(ProcState::kZombie));
  if (k_ != nullptr) {
    k_->retire_mm(proc.asid, old_root);
  } else {
    kmem_.core().mmu().sfence(std::nullopt, proc.asid);
  }
  pcb_cache_.free(proc.pcb);
  procs_.erase(proc.pid);
}

SwitchResult ProcessManager::switch_to(Process& proc) {
  telemetry::ScopedSpan<Core> span(kmem_.core(), telemetry::Subsystem::kSwitchMm,
                                   "switch_mm", proc.pid);
  switches_.add();
  kmem_.core().retire_abstract(kSwitchBodyInstrs,
                               kmem_.core().config().timing.base_cpi);
  if (cfg_.cfi) {
    // switch_mm / finish_task_switch issue a handful of indirect calls.
    kmem_.core().add_cycles(3 * cfg_.cfi_check_cost);
  }

  const u64 pgd = kmem_.must_ld(proc.pcb_pgd_field());

  const SwitchResult check = iso_.validate_switch(proc, pgd, hart());
  if (check != SwitchResult::kOk) {
    token_rejects_.add();
    return check;
  }

  const u64 asid = kmem_.must_ld(proc.pcb + kPcbAsidOff);
  const bool s_bit = iso_.caps().satp_s_bit;
  const u64 satp_v =
      isa::satp::make(isa::satp::kModeSv39, asid, pgd >> kPageShift, s_bit);
  if (!kmem_.core().write_csr(isa::csr::kSatp, satp_v, Privilege::kSupervisor)) {
    return SwitchResult::kSatpFault;
  }
  kmem_.core().add_cycles(kmem_.core().config().timing.csr_extra);
  current_ = &proc;
  // The user shadow call stack is per address space: tell the profiler so
  // it banks the outgoing process's U-mode stack and restores the incoming
  // one (observation only — no cycles).
  if (telemetry::Profiler* pf = telemetry::profiling()) {
    pf->on_context_switch(proc.pid, kmem_.core().cycles(),
                          static_cast<u8>(kmem_.core().priv()));
  }
  return SwitchResult::kOk;
}

bool ProcessManager::add_vma(Process& proc, VirtAddr start, u64 len, u64 prot) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "add_vma");
  if (len == 0 || !is_aligned(start, kPageSize)) return false;
  const VirtAddr end = start + align_up(len, kPageSize);
  if (start < kUserSpaceBase) return false;
  for (const auto& v : proc.vmas) {
    if (ranges_overlap(v.start, v.end - v.start, start, end - start)) return false;
  }
  proc.vmas.push_back(Vma{start, end, prot});
  return true;
}

bool ProcessManager::remove_vma(Process& proc, VirtAddr start, u64 len) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "remove_vma");
  if (len == 0 || !is_aligned(start, kPageSize)) return false;
  const VirtAddr end = start + align_up(len, kPageSize);
  const u64 root = pcb_pgd(proc);

  // Linux munmap semantics: the range may cover part of one VMA (splitting
  // it) or span several; unmapped holes inside the range are fine.
  bool touched = false;
  std::vector<Vma> to_add;
  for (auto it = proc.vmas.begin(); it != proc.vmas.end();) {
    Vma& v = *it;
    if (!ranges_overlap(v.start, v.end - v.start, start, end - start)) {
      ++it;
      continue;
    }
    touched = true;
    const VirtAddr cut_lo = std::max(v.start, start);
    const VirtAddr cut_hi = std::min(v.end, end);
    // Unmap present pages inside the cut.
    for (auto up = proc.user_pages.begin(); up != proc.user_pages.end();) {
      if (up->first >= cut_lo && up->first < cut_hi) {
        (void)pt_.unmap_page(root, up->first);
        shootdown(up->first, proc.asid);
        dec_page_ref(up->second);
        up = proc.user_pages.erase(up);
      } else {
        ++up;
      }
    }
    // Split the VMA around the cut.
    if (v.start < cut_lo && v.end > cut_hi) {
      to_add.push_back(Vma{cut_hi, v.end, v.prot});  // Tail piece.
      v.end = cut_lo;
      ++it;
    } else if (v.start < cut_lo) {
      v.end = cut_lo;
      ++it;
    } else if (v.end > cut_hi) {
      v.start = cut_hi;
      ++it;
    } else {
      it = proc.vmas.erase(it);
    }
  }
  proc.vmas.insert(proc.vmas.end(), to_add.begin(), to_add.end());
  return touched;
}

bool ProcessManager::protect_vma(Process& proc, VirtAddr start, u64 len, u64 prot) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "protect_vma");
  if (len == 0 || !is_aligned(start, kPageSize)) return false;
  const VirtAddr end = start + align_up(len, kPageSize);
  const u64 root = pcb_pgd(proc);

  // mprotect semantics: the range must lie inside a single VMA, which is
  // split so only [start, end) changes protection.
  for (auto it = proc.vmas.begin(); it != proc.vmas.end(); ++it) {
    const Vma v = *it;
    if (start < v.start || end > v.end) continue;

    std::vector<Vma> pieces;
    if (v.start < start) pieces.push_back(Vma{v.start, start, v.prot});
    pieces.push_back(Vma{start, end, prot});
    if (v.end > end) pieces.push_back(Vma{end, v.end, v.prot});
    proc.vmas.erase(it);
    proc.vmas.insert(proc.vmas.end(), pieces.begin(), pieces.end());

    // Rewrite present PTEs in the affected range.
    for (const auto& [va, pa] : proc.user_pages) {
      (void)pa;
      if (va >= start && va < end) {
        (void)pt_.protect_page(root, va, prot | pte::kU);
        shootdown(va, proc.asid);
      }
    }
    return true;
  }
  return false;
}

bool ProcessManager::handle_fault(Process& proc, VirtAddr va, bool write, PtStatus* st) {
  telemetry::ProfScope<Core> prof(kmem_.core(), "handle_fault");
  PtStatus local;
  if (st == nullptr) st = &local;
  faults_.add();

  const VirtAddr page = align_down(va, kPageSize);
  const Vma* vma = nullptr;
  for (const auto& v : proc.vmas) {
    if (va >= v.start && va < v.end) {
      vma = &v;
      break;
    }
  }
  if (vma == nullptr) return false;                       // SIGSEGV
  if (write && !(vma->prot & pte::kW)) return false;      // Write to RO VMA.

  const auto pa = pages_.alloc_pages(Gfp::kUser, 0);
  if (!pa) {
    *st = PtStatus{false, false, true, isa::TrapCause::kNone};
    return false;
  }
  const KAccess z = kmem_.bulk_zero(*pa);
  if (!z.ok) {
    pages_.free_pages(*pa, 0);
    *st = PtStatus{false, false, false, z.fault};
    return false;
  }
  const u64 flags = vma->prot | pte::kU | pte::kA | (write ? pte::kD : 0);
  const PtStatus ms = pt_.map_page(pcb_pgd(proc), page, *pa, flags, &proc.pt_pages);
  if (!ms.ok) {
    pages_.free_pages(*pa, 0);
    *st = ms;
    return false;
  }
  proc.user_pages.emplace_back(page, *pa);
  page_refs_[*pa] = 1;
  *st = PtStatus::success();
  return true;
}

Process* ProcessManager::find(u64 pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : it->second.get();
}

ProcessManager::State ProcessManager::save_state() const {
  State st;
  for (const auto& [pid, proc] : procs_) st.procs.push_back(*proc);
  st.current_pid = current_ != nullptr ? current_->pid : 0;
  st.page_refs.assign(page_refs_.begin(), page_refs_.end());
  std::sort(st.page_refs.begin(), st.page_refs.end());
  st.next_pid = next_pid_;
  st.next_asid = next_asid_;
  return st;
}

void ProcessManager::restore_state(const State& st) {
  procs_.clear();
  for (const Process& p : st.procs) {
    procs_.emplace(p.pid, std::make_unique<Process>(p));
  }
  current_ = st.current_pid != 0 ? find(st.current_pid) : nullptr;
  page_refs_.clear();
  page_refs_.insert(st.page_refs.begin(), st.page_refs.end());
  next_pid_ = st.next_pid;
  next_asid_ = st.next_asid;
}

}  // namespace ptstore
