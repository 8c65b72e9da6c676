// Kernel memory accessor: every load/store the kernel model performs goes
// through the simulated core's full access path (MMU translation, PMP with
// access-kind semantics, cache timing) exactly as if it were an executed
// S-mode instruction.
//
// The pt_* accessors model the kernel's page-table manipulation code, which
// PTStore compiles to the dedicated ld.pt/sd.pt instructions (paper §IV-C2).
// On a baseline kernel (ptstore=false) they degrade to regular ld/sd — the
// unmodified set_pXd() macros.
#pragma once

#include <exception>
#include <string>

#include "cpu/core.h"
#include "telemetry/trace.h"

namespace ptstore {

/// Outcome of a kernel access. `ok == false` carries the architectural
/// fault that the access raised (the attack scenarios assert on these).
struct KAccess {
  bool ok = false;
  isa::TrapCause fault = isa::TrapCause::kNone;
  u64 value = 0;
};

/// Observer for mediated page-table writes: the isolation backend hooks
/// every successful pt_sd to keep backend-side bookkeeping (PTAuth's shadow
/// of signed PTEs, DPTI's domain accounting) in sync with the tables. The
/// callback is host-side only — it must not perform simulated accesses or
/// charge cycles (per-write costs are modeled by the pt_write_extra cycles
/// passed to KernelMem's constructor).
class PtWriteObserver {
 public:
  virtual ~PtWriteObserver() = default;
  virtual void on_pt_write(VirtAddr va, u64 v) = 0;
  /// Bulk fast paths complete host-side after one probe access; these fire
  /// so the observer can resync a whole page at once.
  virtual void on_pt_page_zeroed(VirtAddr page_va) { (void)page_va; }
  virtual void on_pt_page_copied(VirtAddr dst_page, VirtAddr src_page) {
    (void)dst_page;
    (void)src_page;
  }
};

class KernelMem {
 public:
  /// `monitor_cost` > 0 enables the Penglai-style comparison mode (paper
  /// §VI-4): every pt_sd additionally pays an M-mode monitor round trip
  /// that re-validates the mapping.
  KernelMem(Core& core, bool use_pt_insns, Cycles monitor_cost = 0)
      : core_(&core), pt_insns_(use_pt_insns), monitor_cost_(monitor_cost) {}

  /// Regular 64-bit kernel load/store (ordinary instructions).
  KAccess ld(VirtAddr va) { return do_access(va, AccessType::kRead, AccessKind::kRegular, 0); }
  KAccess sd(VirtAddr va, u64 v) { return do_access(va, AccessType::kWrite, AccessKind::kRegular, v); }
  KAccess lw(VirtAddr va) { return do_access(va, AccessType::kRead, AccessKind::kRegular, 0, 4); }
  KAccess sw(VirtAddr va, u32 v) { return do_access(va, AccessType::kWrite, AccessKind::kRegular, v, 4); }

  /// Page-table accessors: ld.pt/sd.pt when PTStore is compiled in.
  KAccess pt_ld(VirtAddr va) {
    trace_pt_insn("kernel.ld.pt", va);
    return do_access(va, AccessType::kRead,
                     pt_insns_ ? AccessKind::kPtInsn : AccessKind::kRegular, 0);
  }
  KAccess pt_sd(VirtAddr va, u64 v) {
    if (monitor_cost_ != 0) {
      // The mediation surcharge (monitor round trip / DPTI domain entry /
      // PTAuth signing) gets its own profile frame so differential
      // attribution can name it even inside an inlined handler.
      telemetry::ProfScope<Core> prof(*core_, "pt_write_mediate");
      core_->add_cycles(monitor_cost_);
    }
    trace_pt_insn("kernel.sd.pt", va);
    const KAccess r = do_access(va, AccessType::kWrite,
                                pt_insns_ ? AccessKind::kPtInsn : AccessKind::kRegular, v);
    if (r.ok && pt_observer_ != nullptr) pt_observer_->on_pt_write(va, v);
    return r;
  }

  /// Install the backend's mediated-write observer (null to detach).
  void set_pt_write_observer(PtWriteObserver* o) { pt_observer_ = o; }

  /// Panic-on-fault variants for accesses the kernel knows must succeed.
  u64 must_ld(VirtAddr va);
  void must_sd(VirtAddr va, u64 v);
  u64 must_pt_ld(VirtAddr va);
  void must_pt_sd(VirtAddr va, u64 v);

  // Bulk fast paths: perform ONE architecturally-checked probe access (so
  // PMP/MMU protection is still enforced on the target page), then complete
  // the operation host-side and charge the cycles a per-word ld.pt/sd.pt
  // loop would have cost. Semantically identical to that loop; used on hot
  // kernel paths (fork storms, demand-zeroing) to keep simulation tractable.
  KAccess pt_bulk_zero(VirtAddr page_va);
  KAccess pt_bulk_copy(VirtAddr dst_va, VirtAddr src_va);
  /// All-zero page check through ld.pt (PTStore's §V-E3 defence), bulk form.
  KAccess pt_bulk_is_zero(VirtAddr page_va);  ///< value = 1 if all zero.
  /// Regular-store page zeroing (user page clearing), bulk form.
  KAccess bulk_zero(VirtAddr page_va);

  /// True if the kernel is compiled with the new instructions.
  bool uses_pt_insns() const { return pt_insns_; }

  Core& core() { return *core_; }

  /// Retarget the accessor at another hart's core: the kernel rebinds this
  /// when it migrates execution between harts (set_active_hart), so every
  /// simulated access and cycle charge lands on the executing hart.
  void rebind_core(Core& c) { core_ = &c; }

 private:
  KAccess do_access(VirtAddr va, AccessType type, AccessKind kind, u64 value,
                    unsigned size = 8);

  /// Instant for the kernel-model pt accessor path (the guest-ISA ld.pt/
  /// sd.pt instructions emit their own instants in exec_mem).
  void trace_pt_insn(const char* name, VirtAddr va) {
    if (!pt_insns_) return;
    if (telemetry::EventRing* tr = telemetry::tracing()) {
      tr->instant(telemetry::Subsystem::kPtInsn, name, core_->cycles(),
                  core_->instret(), static_cast<u8>(core_->priv()), va);
    }
  }

  Core* core_;
  bool pt_insns_;
  Cycles monitor_cost_;
  PtWriteObserver* pt_observer_ = nullptr;
};

/// Thrown when a must_* accessor faults — a kernel panic in the model.
class KernelPanic : public std::exception {
 public:
  explicit KernelPanic(std::string what) : what_(std::move(what)) {}
  const char* what() const noexcept override { return what_.c_str(); }

 private:
  std::string what_;
};

}  // namespace ptstore
