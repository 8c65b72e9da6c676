#include "kernel/kernel.h"

#include <optional>

#include "common/log.h"
#include "telemetry/trace.h"

namespace ptstore {

namespace {
/// Physical space reserved at the bottom of DRAM for the kernel image.
constexpr u64 kKernelImageSize = MiB(16);
/// Straight-line instructions of the trap entry/exit assembly.
constexpr u64 kTrapBodyInstrs = 140;
/// Instructions of the page-fault handler body (vma lookup etc.).
constexpr u64 kFaultBodyInstrs = 350;
/// Abstract cost per page scanned by alloc_contig_range during adjustment.
constexpr u64 kAdjustPerPageInstrs = 3500;
}  // namespace

const char* to_string(Sys s) {
  switch (s) {
    case Sys::kNull: return "null";
    case Sys::kRead: return "read";
    case Sys::kWrite: return "write";
    case Sys::kStat: return "stat";
    case Sys::kFstat: return "fstat";
    case Sys::kOpenClose: return "open/close";
    case Sys::kSelect: return "select";
    case Sys::kSigInstall: return "sig install";
    case Sys::kSigHandle: return "sig handle";
    case Sys::kPipe: return "pipe";
    case Sys::kFork: return "fork+exit";
    case Sys::kForkExec: return "fork+execve";
    case Sys::kMmap: return "mmap";
    case Sys::kMunmap: return "munmap";
    case Sys::kMprotect: return "mprotect";
    case Sys::kBrk: return "brk";
    case Sys::kGetpid: return "getpid";
    case Sys::kSendRecv: return "send/recv";
    case Sys::kAcceptClose: return "accept/close";
  }
  return "?";
}

SyscallCost syscall_cost(Sys s) {
  // Body instruction counts are sized so relative syscall latencies track
  // LMBench's ordering; indirect-call counts approximate the density of
  // CFI-instrumented call sites on each Linux path.
  switch (s) {
    case Sys::kNull: return {120, 2};
    case Sys::kRead: return {420, 6};
    case Sys::kWrite: return {360, 5};
    case Sys::kStat: return {920, 11};
    case Sys::kFstat: return {310, 4};
    case Sys::kOpenClose: return {1650, 18};
    case Sys::kSelect: return {720, 9};
    case Sys::kSigInstall: return {260, 3};
    case Sys::kSigHandle: return {1150, 8};
    case Sys::kPipe: return {1500, 14};
    case Sys::kFork: return {60000, 300};
    case Sys::kForkExec: return {90000, 400};
    case Sys::kMmap: return {700, 8};
    case Sys::kMunmap: return {520, 6};
    case Sys::kMprotect: return {460, 5};
    case Sys::kBrk: return {300, 4};
    case Sys::kGetpid: return {100, 2};
    case Sys::kSendRecv: return {1900, 50};
    case Sys::kAcceptClose: return {2450, 60};
  }
  return {};
}

Kernel::Kernel(Core& core, SbiMonitor& sbi, const KernelConfig& cfg)
    : core_(core),
      harts_{&core},
      sbi_(sbi),
      cfg_(cfg),
      iso_(IsolationConfig::resolve(cfg)),
      booted_count_(bank_.counter("kernel.booted", "successful boots")),
      restored_count_(bank_.counter("kernel.checkpoint_restores",
                                    "checkpoint restores (boots skipped)")),
      sr_adjustments_(bank_.counter("kernel.sr_adjustments",
                                    "secure-region boundary adjustments")),
      traps_(bank_.counter("kernel.traps", "kernel trap round-trips charged")),
      syscalls_(bank_.counter("kernel.syscalls", "syscalls executed")) {}

Kernel::~Kernel() {
  // The cores outlive the kernel inside System; detach the walk verifier so
  // no MMU dangles into the destroyed backend.
  for (Core* hart : harts_) hart->mmu().set_walk_verifier(nullptr);
}

void Kernel::set_active_hart(unsigned h) {
  active_hart_ = h;
  // KernelMem is the single access funnel shared by every subsystem
  // (allocator, page tables, tokens, processes): rebinding it moves all
  // kernel-model accesses and cycle charges to the executing hart.
  if (kmem_) kmem_->rebind_core(*harts_[h]);
}

void Kernel::tlb_shootdown(std::optional<VirtAddr> va, std::optional<u16> asid) {
  // Initiator's local flush — on a single-hart system this is the whole
  // operation, byte-identical (in cycles and calls) to the historical
  // per-hart sfence.
  core().mmu().sfence(va, asid);
  if (harts_.size() <= 1) return;
  ++shootdowns_;
  for (unsigned h = 0; h < harts_.size(); ++h) {
    if (h == active_hart_) continue;
    if (cfg_.skip_shootdown_ipi) continue;  // Sabotage knob: stale TLBs stay.
    // sbi_send_ipi → remote SSIP → remote handler sfences and acks → the
    // initiator spin-waits on the ack before touching the freed mapping.
    sbi_.send_ipi(core(), h);
    ++ipis_sent_;
    harts_[h]->mmu().sfence(va, asid);
    sbi_.clear_ipi(h);
    core().add_cycles(kShootdownAckWait);
  }
}

void Kernel::retire_mm(u16 asid, PhysAddr root) {
  core().mmu().sfence(std::nullopt, asid);
  if (harts_.size() <= 1) return;
  ++shootdowns_;
  for (unsigned h = 0; h < harts_.size(); ++h) {
    if (h == active_hart_) continue;
    if (cfg_.skip_shootdown_ipi) continue;
    sbi_.send_ipi(core(), h);
    ++ipis_sent_;
    Core& rc = *harts_[h];
    // leave_mm(): a remote hart lazily parked on the dying address space
    // must not keep its root in satp past the teardown — repoint it at the
    // kernel page table before the pages are freed for reuse.
    if (root != 0 && isa::satp::ppn(rc.mmu().satp()) == root >> kPageShift) {
      const u64 ksatp = isa::satp::make(isa::satp::kModeSv39, cfg_.kernel_asid,
                                        kernel_root_ >> kPageShift,
                                        iso_.satp_s_bit);
      rc.write_csr(isa::csr::kSatp, ksatp, Privilege::kSupervisor);
    }
    rc.mmu().sfence(std::nullopt, asid);
    sbi_.clear_ipi(h);
    core().add_cycles(kShootdownAckWait);
  }
}

bool Kernel::boot() {
  if (booted_) return false;
  const PhysAddr dram_base = core_.mem().dram_base();
  const PhysAddr dram_end = core_.mem().dram_end();
  const PhysAddr normal_base = dram_base + kKernelImageSize;

  sbi_.boot_init();

  PhysAddr sr_base = dram_end;  // Empty PTStore zone on the baseline kernel.
  if (iso_.secure_zone) {
    if (iso_.secure_region_init + kKernelImageSize + MiB(16) >
        core_.mem().dram_size()) {
      LOG_ERROR("kernel", "DRAM too small for the configured secure region");
      return false;
    }
    sr_base = dram_end - iso_.secure_region_init;
    if (sbi_.sr_init(sr_base, iso_.secure_region_init) != SbiStatus::kOk) {
      return false;
    }
  }

  kmem_ = std::make_unique<KernelMem>(core_, iso_.pt_insns, iso_.pt_write_extra);
  pages_ = std::make_unique<PageAllocator>(normal_base, sr_base, dram_end, bank_);
  backend_ = make_isolation_backend(iso_, *this);
  kmem_->set_pt_write_observer(backend_.get());
  for (Core* hart : harts_) hart->mmu().set_walk_verifier(backend_->walk_verifier());
  pt_ = std::make_unique<PageTableManager>(*kmem_, *pages_, *backend_);

  PtStatus st;
  const auto root = pt_->create_kernel_root(dram_end, &st);
  if (!root) return false;
  kernel_root_ = *root;

  // Enable paging (kernel direct map) with the backend's walker check.
  const u64 satp_v = isa::satp::make(isa::satp::kModeSv39, cfg_.kernel_asid,
                                     kernel_root_ >> kPageShift, iso_.satp_s_bit);
  if (!core_.write_csr(isa::csr::kSatp, satp_v, Privilege::kSupervisor)) return false;
  core_.mmu().sfence(std::nullopt, std::nullopt);

  // Token slab lives in the secure region and zero-initializes its objects
  // (§IV-C3). The PCB slab is ordinary kernel memory — deliberately
  // attackable, per the threat model.
  token_cache_ = std::make_unique<KmemCache>(
      "ptstore_token", kTokenSize, iso_.secure_zone ? Gfp::kPtStore : Gfp::kKernel,
      *pages_, *kmem_, [](KernelMem& km, PhysAddr obj) {
        km.must_pt_sd(obj + kTokenPtPtrOff, 0);
        km.must_pt_sd(obj + kTokenUserPtrOff, 0);
      });
  pcb_cache_ = std::make_unique<KmemCache>(
      "task_struct", kPcbSize, Gfp::kKernel, *pages_, *kmem_,
      [](KernelMem& km, PhysAddr obj) {
        for (u64 off = 0; off < kPcbSize; off += 8) km.must_sd(obj + off, 0);
      });

  tokens_ = std::make_unique<TokenManager>(*kmem_, *token_cache_);
  pm_ = std::make_unique<ProcessManager>(*kmem_, *pt_, *pages_, *backend_,
                                         *pcb_cache_, cfg_, kernel_root_, bank_);
  pm_->set_kernel(this);

  if (iso_.allow_adjustment) {
    pages_->set_grow_hook([this](unsigned order) { return grow_secure_region(order); });
  }

  // Secondary harts come online idle in the kernel address space: same
  // paging mode and walker check as the boot hart, parked at Supervisor.
  // (PMP was already mirrored to them by the SBI calls above.)
  for (unsigned h = 1; h < harts_.size(); ++h) {
    if (!harts_[h]->write_csr(isa::csr::kSatp, satp_v, Privilege::kSupervisor)) {
      return false;
    }
    harts_[h]->mmu().sfence(std::nullopt, std::nullopt);
    harts_[h]->set_priv(Privilege::kSupervisor);
  }

  init_ = pm_->create_init(&st);
  if (init_ == nullptr) return false;
  if (pm_->switch_to(*init_) != SwitchResult::kOk) return false;

  booted_ = true;
  booted_count_.add();
  return true;
}

Kernel::State Kernel::save_state() const {
  State st;
  st.normal_zone = pages_->normal().save_state();
  st.ptstore_zone = pages_->ptstore().save_state();
  st.pagetables = pt_->save_state();
  st.token_cache = token_cache_->save_state();
  st.pcb_cache = pcb_cache_->save_state();
  st.processes = pm_->save_state();
  st.backend = backend_->save_state();
  st.kernel_root = kernel_root_;
  st.uart_base = uart_base_;
  st.init_pid = init_ != nullptr ? init_->pid : 0;
  st.adjustments = adjustments_;
  st.booted = booted_;
  return st;
}

void Kernel::restore_state(const State& st) {
  // Reconstruct the subsystems exactly as boot() wires them, minus every
  // architectural side effect: memory contents, satp, and the PMP layout
  // are restored separately (PhysMem frames + CoreArchState), so nothing
  // here may touch simulated memory. The slab constructors exist on the
  // rebuilt caches but run only in grow(); restore never invokes them.
  active_hart_ = 0;
  kmem_ = std::make_unique<KernelMem>(core_, iso_.pt_insns, iso_.pt_write_extra);
  // Zone geometry comes from the checkpoint, not the boot-time layout: the
  // PTSTORE base moves on secure-region growth.
  pages_ = std::make_unique<PageAllocator>(st.normal_zone.base, st.ptstore_zone.base,
                                           st.ptstore_zone.end, bank_);
  pages_->normal().restore_state(st.normal_zone);
  pages_->ptstore().restore_state(st.ptstore_zone);
  backend_ = make_isolation_backend(iso_, *this);
  backend_->restore_state(st.backend);
  kmem_->set_pt_write_observer(backend_.get());
  for (Core* hart : harts_) hart->mmu().set_walk_verifier(backend_->walk_verifier());
  pt_ = std::make_unique<PageTableManager>(*kmem_, *pages_, *backend_);
  pt_->restore_state(st.pagetables);

  token_cache_ = std::make_unique<KmemCache>(
      "ptstore_token", kTokenSize, iso_.secure_zone ? Gfp::kPtStore : Gfp::kKernel,
      *pages_, *kmem_, [](KernelMem& km, PhysAddr obj) {
        km.must_pt_sd(obj + kTokenPtPtrOff, 0);
        km.must_pt_sd(obj + kTokenUserPtrOff, 0);
      });
  token_cache_->restore_state(st.token_cache);
  pcb_cache_ = std::make_unique<KmemCache>(
      "task_struct", kPcbSize, Gfp::kKernel, *pages_, *kmem_,
      [](KernelMem& km, PhysAddr obj) {
        for (u64 off = 0; off < kPcbSize; off += 8) km.must_sd(obj + off, 0);
      });
  pcb_cache_->restore_state(st.pcb_cache);

  kernel_root_ = st.kernel_root;
  tokens_ = std::make_unique<TokenManager>(*kmem_, *token_cache_);
  pm_ = std::make_unique<ProcessManager>(*kmem_, *pt_, *pages_, *backend_,
                                         *pcb_cache_, cfg_, kernel_root_, bank_);
  pm_->set_kernel(this);
  pm_->restore_state(st.processes);

  if (iso_.allow_adjustment) {
    pages_->set_grow_hook([this](unsigned order) { return grow_secure_region(order); });
  }

  init_ = st.init_pid != 0 ? pm_->find(st.init_pid) : nullptr;
  uart_base_ = st.uart_base;
  adjustments_ = st.adjustments;
  booted_ = st.booted;
  collect_latency_ = false;
  latency_.clear();
  restored_count_.add();
}

bool Kernel::grow_secure_region(unsigned order) {
  if (!iso_.allow_adjustment) return false;
  telemetry::ScopedSpan<Core> span(core(), telemetry::Subsystem::kSecureRegion,
                                   "sr_grow", order);
  const SecureRegion sr = sbi_.sr_get();
  u64 chunk = std::max<u64>(iso_.adjustment_chunk_pages, u64{1} << order);

  // Keep a safety floor so the NORMAL zone cannot be consumed entirely.
  const PhysAddr floor = pages_->normal().base() + MiB(8);
  while (chunk >= (u64{1} << order)) {
    const u64 bytes = chunk << kPageShift;
    if (sr.base < floor + bytes) {
      chunk >>= 1;
      continue;
    }
    const PhysAddr new_base = sr.base - bytes;
    // alloc_contig_range() on the pages adjacent to the boundary.
    core().retire_abstract(chunk * kAdjustPerPageInstrs,
                           core().config().timing.base_cpi);
    if (!pages_->normal().alloc_range(new_base, chunk)) {
      chunk >>= 1;
      continue;
    }
    if (sbi_.sr_set_boundary(new_base) != SbiStatus::kOk) {
      pages_->normal().free_range(new_base, chunk);
      return false;
    }
    if (!pages_->ptstore().donate_front(new_base, chunk)) {
      // Should be impossible: the range abuts the zone base by construction.
      return false;
    }
    // Scrub the donated pages: they may carry stale normal-memory data, and
    // the §V-E3 zero-check requires free secure pages to read back zero.
    core().mem().fill(new_base, 0, bytes);
    core().retire_abstract(chunk * (kPageSize / 8),
                           core().config().timing.base_cpi);
    ++adjustments_;
    sr_adjustments_.add();
    LOG_INFO("kernel", "secure region grown to [0x%llx, 0x%llx)",
             static_cast<unsigned long long>(new_base),
             static_cast<unsigned long long>(sr.end));
    return true;
  }
  return false;
}

bool Kernel::attach_console(PhysAddr uart_base) {
  if (!booted_) return false;
  if (iso_.guard_console) {
    // §V-F: the UART window becomes a guard region — regular stores (an
    // attacker silencing the console, say) fault; the driver uses sd.pt.
    if (sbi_.guard_region(uart_base, kPageSize) != SbiStatus::kOk) return false;
  }
  uart_base_ = uart_base;
  return true;
}

bool Kernel::console_write(const std::string& bytes) {
  if (uart_base_ == 0) return false;
  for (const char c : bytes) {
    // The driver's TX poll + store: status read then data write, both via
    // the pt accessors (regular instructions when PTStore is off).
    const KAccess st = kmem_->pt_ld(uart_base_ + 8);
    if (!st.ok) return false;
    const KAccess wr = kmem_->pt_sd(uart_base_, static_cast<u64>(c) & 0xFF);
    if (!wr.ok) return false;
  }
  return true;
}

void Kernel::charge_trap_roundtrip() {
  telemetry::ScopedSpan<Core> span(core(), telemetry::Subsystem::kTrap,
                                   "trap_roundtrip");
  core().add_cycles(core().config().timing.trap_entry +
                    core().config().timing.trap_return);
  core().retire_abstract(kTrapBodyInstrs, core().config().timing.base_cpi);
  cfi_charge(1);
  traps_.add();
}

bool Kernel::syscall(Process& proc, Sys s) {
  telemetry::ScopedSpan<Core> span(core(), telemetry::Subsystem::kSyscall,
                                   to_string(s), static_cast<u64>(s));
  const Cycles entry_cycles = core().cycles();
  const bool ok = syscall_impl(proc, s);
  if (collect_latency_) latency_[s].record(core().cycles() - entry_cycles);
  return ok;
}

bool Kernel::syscall_impl(Process& proc, Sys s) {
  syscalls_.add();
  charge_trap_roundtrip();
  const SyscallCost cost = syscall_cost(s);
  core().retire_abstract(cost.body_instrs, core().config().timing.base_cpi);
  cfi_charge(cost.indirect_calls);

  switch (s) {
    case Sys::kNull:
    case Sys::kGetpid:
      (void)kmem_->must_ld(proc.pcb + kPcbPidOff);
      return true;
    case Sys::kRead:
    case Sys::kWrite:
    case Sys::kFstat:
    case Sys::kStat:
    case Sys::kOpenClose:
    case Sys::kSelect:
    case Sys::kSigInstall:
    case Sys::kSigHandle:
    case Sys::kBrk:
    case Sys::kSendRecv:
    case Sys::kAcceptClose:
      // Straight-line kernel paths: fully covered by the cost model plus a
      // couple of PCB touches.
      (void)kmem_->must_ld(proc.pcb + kPcbPidOff);
      (void)kmem_->must_ld(proc.pcb + kPcbStateOff);
      return true;
    case Sys::kPipe: {
      // Pipe round trip: two context switches through the partner (init).
      Process* partner = init_ != nullptr && init_->pid != proc.pid ? init_ : &proc;
      if (pm_->switch_to(*partner) != SwitchResult::kOk) return false;
      if (pm_->switch_to(proc) != SwitchResult::kOk) return false;
      return true;
    }
    case Sys::kFork: {
      PtStatus st;
      Process* child = pm_->fork(proc, &st);
      if (child == nullptr) return false;
      if (pm_->switch_to(*child) != SwitchResult::kOk) return false;
      pm_->exit(*child);
      return pm_->switch_to(proc) == SwitchResult::kOk;
    }
    case Sys::kForkExec: {
      PtStatus st;
      Process* child = pm_->fork(proc, &st);
      if (child == nullptr) return false;
      if (!pm_->exec(*child, &st)) {
        pm_->exit(*child);
        return false;
      }
      if (pm_->switch_to(*child) != SwitchResult::kOk) return false;
      pm_->exit(*child);
      return pm_->switch_to(proc) == SwitchResult::kOk;
    }
    case Sys::kMmap: {
      // LMBench-style map/unmap of 64 KiB.
      static constexpr u64 kLen = KiB(64);
      const VirtAddr at = kUserSpaceBase + GiB(64);
      if (!pm_->add_vma(proc, at, kLen, pte::kR | pte::kW)) return false;
      return pm_->remove_vma(proc, at, kLen);
    }
    case Sys::kMunmap:
    case Sys::kMprotect:
      // Covered by the explicit sys_* flows in the workloads; as a bare
      // syscall they are body-cost only.
      return true;
  }
  return false;
}

bool Kernel::user_access(Process& proc, VirtAddr va, bool write) {
  // Span over the fault round trip *and* the retry access: the TLB fill
  // walk for the freshly mapped page is part of the demand-paging cost, so
  // the PTW span nests inside the trap span in the exported trace. The span
  // is a pure observer — opening it charges no cycles.
  std::optional<telemetry::ScopedSpan<Core>> fault_span;
  for (int attempt = 0; attempt < 2; ++attempt) {
    const MemAccessResult r =
        core().access_as(va, 8, write ? AccessType::kWrite : AccessType::kRead,
                         AccessKind::kRegular, Privilege::kUser, 0x5A5A5A5A5A5A5A5A);
    core().retire_abstract(1, core().config().timing.base_cpi);
    core().add_cycles(r.cycles);
    if (r.ok) return true;

    const bool page_fault = r.fault == isa::TrapCause::kLoadPageFault ||
                            r.fault == isa::TrapCause::kStorePageFault ||
                            r.fault == isa::TrapCause::kInstPageFault;
    if (!page_fault) return false;

    fault_span.emplace(core(), telemetry::Subsystem::kTrap, "page_fault", va);
    charge_trap_roundtrip();
    core().retire_abstract(kFaultBodyInstrs, core().config().timing.base_cpi);
    cfi_charge(6);
    PtStatus st;
    if (!pm_->handle_fault(proc, va, write, &st)) return false;
  }
  return false;
}

}  // namespace ptstore
