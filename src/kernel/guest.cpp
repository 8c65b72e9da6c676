#include "kernel/guest.h"

#include "common/bits.h"

namespace ptstore {

namespace {
constexpr u64 kSysWrite = 64;
constexpr u64 kSysExit = 93;
constexpr u64 kSysGetpid = 172;
constexpr u64 kSysBrk = 214;
constexpr i64 kEnosys = -38;

constexpr u64 kHeapMax = MiB(4);
constexpr u64 kStackSize = MiB(1);

/// Exceptions the kernel handles in S-mode for user processes.
constexpr u64 kGuestMedeleg =
    (u64{1} << static_cast<u64>(isa::TrapCause::kInstAccessFault)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kIllegalInst)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kLoadAccessFault)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kStoreAccessFault)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kEcallFromU)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kInstPageFault)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kLoadPageFault)) |
    (u64{1} << static_cast<u64>(isa::TrapCause::kStorePageFault));
}  // namespace

GuestRunner::GuestRunner(Kernel& kernel) : kernel_(kernel) {}

bool GuestRunner::load_program(Process& proc, VirtAddr entry,
                               const std::vector<u32>& code) {
  ProcessManager& pm = kernel_.processes();
  const VirtAddr lo = align_down(entry, kPageSize);
  const VirtAddr hi = align_up(entry + 4 * code.size(), kPageSize);
  if (!pm.add_vma(proc, lo, hi - lo, pte::kR | pte::kX)) return false;
  // Stack and heap areas (demand-paged).
  if (!pm.add_vma(proc, kStackTop - kStackSize, kStackSize, pte::kR | pte::kW)) {
    return false;
  }
  if (!pm.add_vma(proc, kHeapBase, kHeapMax, pte::kR | pte::kW)) return false;
  brk_[proc.pid] = kHeapBase;

  // Populate the text pages and copy the image in through the kernel's
  // direct map (how execve's loader writes a user page before it is ever
  // executable in the user's context).
  const PhysAddr root = pm.pcb_pgd(proc);
  for (VirtAddr page = lo; page < hi; page += kPageSize) {
    PtStatus st;
    if (!pm.handle_fault(proc, page, /*write=*/false, &st)) return false;
    const auto leaf = kernel_.pagetables().read_pte(root, page);
    if (!leaf || !pte::is_leaf(*leaf)) return false;
    const PhysAddr pa = pte::pa(*leaf);
    for (u64 off = 0; off < kPageSize; off += 4) {
      const u64 idx = (page + off - entry) / 4;
      if (page + off < entry || idx >= code.size()) continue;
      kernel_.core().mem().write_u32(pa + off, code[idx]);
    }
    kernel_.core().retire_abstract(kPageSize / 8,
                                   kernel_.core().config().timing.base_cpi);
  }
  return true;
}

std::string GuestRunner::read_guest_bytes(VirtAddr va, u64 len) {
  std::string out;
  out.reserve(len);
  Core& core = kernel_.core();
  for (u64 i = 0; i < len; ++i) {
    MemAccessResult r = core.access_as(va + i, 1, AccessType::kRead,
                                       AccessKind::kRegular, Privilege::kUser);
    if (!r.ok && active_ != nullptr) {
      // Copy-from-user demand-pages just like a direct access would.
      if (!kernel_.processes().handle_fault(*active_, va + i, false)) break;
      r = core.access_as(va + i, 1, AccessType::kRead, AccessKind::kRegular,
                         Privilege::kUser);
    }
    if (!r.ok) break;
    out.push_back(static_cast<char>(r.value));
  }
  core.retire_abstract(len, core.config().timing.base_cpi);
  return out;
}

u64 GuestRunner::do_syscall(u64 num, u64 a0, u64 a1, u64 a2) {
  kernel_.charge_trap_roundtrip();
  switch (num) {
    case kSysWrite: {
      kernel_.cfi_charge(syscall_cost(Sys::kWrite).indirect_calls);
      const u64 len = std::min<u64>(a2, kPageSize);
      if (a0 == 1 || a0 == 2) {
        const std::string bytes = read_guest_bytes(a1, len);
        result_->console += bytes;
        kernel_.console_write(bytes);  // Through the guarded UART driver.
      }
      return a2;
    }
    case kSysExit:
      result_->exited = true;
      result_->exit_code = a0;
      return 0;
    case kSysGetpid:
      kernel_.cfi_charge(syscall_cost(Sys::kGetpid).indirect_calls);
      return active_->pid;
    case kSysBrk: {
      kernel_.cfi_charge(syscall_cost(Sys::kBrk).indirect_calls);
      VirtAddr& brk = brk_[active_->pid];
      if (brk == 0) brk = kHeapBase;
      if (a0 >= kHeapBase && a0 <= kHeapBase + kHeapMax) brk = a0;
      return brk;
    }
    default:
      return static_cast<u64>(kEnosys);
  }
}

bool GuestRunner::handle_trap(isa::TrapCause cause, u64 tval) {
  Core& core = kernel_.core();
  switch (cause) {
    case isa::TrapCause::kInstPageFault:
    case isa::TrapCause::kLoadPageFault:
    case isa::TrapCause::kStorePageFault: {
      const bool write = cause == isa::TrapCause::kStorePageFault;
      kernel_.charge_trap_roundtrip();
      if (kernel_.processes().handle_fault(*active_, tval, write)) {
        return true;  // sepc unchanged: the access retries and succeeds.
      }
      result_->faulted = true;  // Segfault: no VMA / permission mismatch.
      result_->fault = cause;
      return true;
    }
    case isa::TrapCause::kEcallFromU: {
      const u64 ret = do_syscall(core.reg(17), core.reg(10), core.reg(11),
                                 core.reg(12));
      core.set_reg(10, ret);
      // Resume after the ecall.
      const u64 sepc = *core.read_csr(isa::csr::kSepc, Privilege::kSupervisor);
      core.write_csr(isa::csr::kSepc, sepc + 4, Privilege::kSupervisor);
      return true;
    }
    default:
      result_->faulted = true;
      result_->fault = cause;
      return true;
  }
}

GuestResult GuestRunner::run_common(Process& proc, u64 max_insts) {
  GuestResult res;
  Core& core = kernel_.core();
  active_ = &proc;
  result_ = &res;
  core.write_csr(isa::csr::kMedeleg, kGuestMedeleg, Privilege::kMachine);
  core.set_strap_hook([this](Core&, isa::TrapCause cause, u64 tval) {
    return TrapHookResult{handle_trap(cause, tval)};
  });

  core.set_priv(Privilege::kUser);
  const u64 inst_start = core.instret();
  while (!res.exited && !res.faulted && !res.preempted &&
         core.instret() - inst_start < max_insts) {
    const StepResult r = core.step();
    if (r.stop == StopReason::kEbreakHalt) {
      // Bare ebreak: treated as exit with a0 as the code (test convention).
      res.exited = true;
      res.exit_code = core.reg(10);
      break;
    }
    if (r.stop == StopReason::kWfi) break;
  }
  res.instructions = core.instret() - inst_start;

  core.set_strap_hook(nullptr);
  core.set_priv(Privilege::kSupervisor);
  active_ = nullptr;
  result_ = nullptr;
  return res;
}

GuestResult GuestRunner::run(Process& proc, VirtAddr entry, u64 max_insts) {
  Core& core = kernel_.core();
  if (kernel_.processes().switch_to(proc) != SwitchResult::kOk) {
    GuestResult res;
    res.faulted = true;
    return res;
  }
  core.set_pc(entry);
  return run_common(proc, max_insts);
}

void GuestRunner::restore_or_init_context(Process& proc, VirtAddr entry) {
  Core& core = kernel_.core();
  // The register save/restore is what the kernel's trap-entry assembly does
  // on a real context switch; charge a comparable cost.
  auto it = contexts_.find(proc.pid);
  if (it == contexts_.end()) {
    for (unsigned r = 1; r < 32; ++r) core.set_reg(r, 0);
    core.set_pc(entry);
  } else {
    for (unsigned r = 1; r < 32; ++r) core.set_reg(r, it->second.regs[r]);
    core.set_pc(it->second.pc);
  }
  core.retire_abstract(64, core.config().timing.base_cpi);
}

void GuestRunner::save_or_reap_context(Process& proc, const GuestResult& res) {
  Core& core = kernel_.core();
  if (res.exited || res.faulted) {
    contexts_.erase(proc.pid);
  } else {
    GuestContext& ctx = contexts_[proc.pid];
    for (unsigned r = 1; r < 32; ++r) ctx.regs[r] = core.reg(r);
    ctx.pc = core.pc();
  }
}

GuestResult GuestRunner::run_slice(Process& proc, VirtAddr entry, u64 slice_insts) {
  if (kernel_.processes().switch_to(proc) != SwitchResult::kOk) {
    GuestResult res;
    res.faulted = true;
    return res;
  }
  restore_or_init_context(proc, entry);
  GuestResult res = run_common(proc, slice_insts);
  save_or_reap_context(proc, res);
  return res;
}

GuestResult GuestRunner::run_slice_timed(Process& proc, VirtAddr entry,
                                         Cycles quantum) {
  Core& core = kernel_.core();
  if (kernel_.processes().switch_to(proc) != SwitchResult::kOk) {
    GuestResult res;
    res.faulted = true;
    return res;
  }
  restore_or_init_context(proc, entry);

  // Arm the machine timer and hand its interrupt to the S-mode kernel
  // (mideleg), where our handler preempts the guest. Real scheduler shape:
  // the quantum ends whenever the hardware says so, not after a fixed
  // instruction count.
  namespace csr = isa::csr;
  core.set_sintr_hook([this](Core& c, unsigned code) {
    if (code != csr::irq::kMti) return false;
    c.write_csr(csr::kMtimecmp, ~u64{0}, Privilege::kMachine);  // Disarm.
    kernel_.charge_trap_roundtrip();
    if (result_ != nullptr) result_->preempted = true;
    return true;  // sret back; the run loop stops on `preempted`.
  });
  const u64 old_mideleg = *core.read_csr(csr::kMideleg, Privilege::kMachine);
  const u64 old_mie = *core.read_csr(csr::kMie, Privilege::kMachine);
  core.write_csr(csr::kMideleg, old_mideleg | (u64{1} << csr::irq::kMti),
                 Privilege::kMachine);
  core.write_csr(csr::kMie, old_mie | (u64{1} << csr::irq::kMti),
                 Privilege::kMachine);
  core.write_csr(csr::kMtimecmp, core.cycles() + quantum, Privilege::kMachine);

  GuestResult res = run_common(proc, ~u64{0} >> 1);

  core.write_csr(csr::kMtimecmp, ~u64{0}, Privilege::kMachine);
  core.write_csr(csr::kMideleg, old_mideleg, Privilege::kMachine);
  core.write_csr(csr::kMie, old_mie, Privilege::kMachine);
  core.set_sintr_hook(nullptr);
  save_or_reap_context(proc, res);
  return res;
}

}  // namespace ptstore
