#include "kernel/kmem.h"

#include <sstream>

namespace ptstore {

KAccess KernelMem::do_access(VirtAddr va, AccessType type, AccessKind kind, u64 value,
                             unsigned size) {
  const MemAccessResult r =
      core_->access_as(va, size, type, kind, Privilege::kSupervisor, value);
  // Charge the access like one executed instruction: base CPI plus the
  // cache/PTW cycles the access path reported.
  core_->retire_abstract(1, core_->config().timing.base_cpi);
  core_->add_cycles(r.cycles);
  if (!r.ok) return {false, r.fault, 0};
  return {true, isa::TrapCause::kNone, r.value};
}

namespace {
[[noreturn]] void panic(const char* op, VirtAddr va, isa::TrapCause cause) {
  std::ostringstream os;
  os << "kernel panic: " << op << " at 0x" << std::hex << va << " raised "
     << isa::to_string(cause);
  throw KernelPanic(os.str());
}
}  // namespace

u64 KernelMem::must_ld(VirtAddr va) {
  const KAccess a = ld(va);
  if (!a.ok) panic("ld", va, a.fault);
  return a.value;
}

void KernelMem::must_sd(VirtAddr va, u64 v) {
  const KAccess a = sd(va, v);
  if (!a.ok) panic("sd", va, a.fault);
}

u64 KernelMem::must_pt_ld(VirtAddr va) {
  const KAccess a = pt_ld(va);
  if (!a.ok) panic("ld.pt", va, a.fault);
  return a.value;
}

void KernelMem::must_pt_sd(VirtAddr va, u64 v) {
  const KAccess a = pt_sd(va, v);
  if (!a.ok) panic("sd.pt", va, a.fault);
}

namespace {
constexpr u64 kWordsPerPage = kPageSize / 8;
}

KAccess KernelMem::pt_bulk_zero(VirtAddr page_va) {
  const KAccess probe = pt_sd(page_va, 0);
  if (!probe.ok) return probe;
  core_->mem().fill(page_va, 0, kPageSize);  // Kernel VA == PA (direct map).
  core_->retire_abstract(kWordsPerPage - 1, core_->config().timing.base_cpi);
  if (pt_observer_ != nullptr) pt_observer_->on_pt_page_zeroed(page_va);
  return {true, isa::TrapCause::kNone, 0};
}

KAccess KernelMem::pt_bulk_copy(VirtAddr dst_va, VirtAddr src_va) {
  const KAccess rd = pt_ld(src_va);
  if (!rd.ok) return rd;
  const KAccess wr = pt_sd(dst_va, rd.value);
  if (!wr.ok) return wr;
  u8 buf[kPageSize];
  core_->mem().read_block(src_va, buf, kPageSize);
  core_->mem().write_block(dst_va, buf, kPageSize);
  core_->retire_abstract(2 * (kWordsPerPage - 1), core_->config().timing.base_cpi);
  if (pt_observer_ != nullptr) pt_observer_->on_pt_page_copied(dst_va, src_va);
  return {true, isa::TrapCause::kNone, 0};
}

KAccess KernelMem::pt_bulk_is_zero(VirtAddr page_va) {
  const KAccess probe = pt_ld(page_va);
  if (!probe.ok) return probe;
  const bool zero = core_->mem().is_zero(page_va, kPageSize);
  core_->retire_abstract(kWordsPerPage - 1, core_->config().timing.base_cpi);
  return {true, isa::TrapCause::kNone, zero ? u64{1} : u64{0}};
}

KAccess KernelMem::bulk_zero(VirtAddr page_va) {
  const KAccess probe = sd(page_va, 0);
  if (!probe.ok) return probe;
  core_->mem().fill(page_va, 0, kPageSize);
  core_->retire_abstract(kWordsPerPage - 1, core_->config().timing.base_cpi);
  return {true, isa::TrapCause::kNone, 0};
}

}  // namespace ptstore
