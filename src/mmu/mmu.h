// Sv39 MMU: TLBs plus a hardware page-table walker implementing PTStore's
// satp.S secure-region check — when enabled, every PTE fetch of the walk
// must land in a PMP S=1 region or the access takes an access fault
// (paper §III-C2 / §IV-A1). This is the mechanism that defeats PT-Injection:
// a hijacked page-table pointer aimed at attacker-controlled normal memory
// simply cannot be walked.
//
// Host-speed notes. translate() is split: its fast path is inline below
// (identity map, canonical check, the TLB memo branch, leaf check, D-bit
// rule, in that order) and runs inside the core's one access path; a memo
// miss goes out of line to translate_scan() (TLB scan, then walk). The
// walker asks PmpUnit::pte_fetch() once per level for the secure, PMP and
// any-active answers, all from one region-map lookup.
#pragma once

#include "cache/cache.h"
#include "cache/tlb.h"
#include "isa/csr.h"
#include "isa/trap.h"
#include "mem/phys_mem.h"
#include "mmu/pte.h"
#include "pmp/pmp.h"
#include "telemetry/metrics.h"

namespace ptstore {

struct TranslateResult {
  bool ok = false;
  isa::TrapCause fault = isa::TrapCause::kNone;
  PhysAddr pa = 0;
  u64 leaf_pte = 0;
  unsigned level = 0;
  bool tlb_hit = false;
  Cycles cycles = 0;  ///< PTW + PTE-fetch cycles charged to this translation.
  /// Portion of `cycles` charged by the walk-time verifier (PTAuth MAC
  /// checks); the profiler carves it out as a "ptw_verify" child frame.
  Cycles verify_cycles = 0;
  /// The walk consumed at least one PTE from outside every PMP S=1 region.
  /// Always false on a TLB hit. This is the observable for ptmc's P1
  /// ("PTW never fetches a PTE outside the secure region") when the satp.S
  /// check is mutated off — the deny path never runs, but the fetch is real.
  bool fetched_nonsecure_pte = false;
};

/// Walk-time PTE authentication hook (PTAuth-style verify-on-walk): when
/// installed, the walker presents every PTE it fetches for verification
/// before consuming it. A veto turns the translation into an access fault,
/// exactly like the satp.S secure check. `cost` accumulates the cycles the
/// verification hardware adds to this fetch (e.g. one MAC evaluation).
class WalkVerifier {
 public:
  virtual ~WalkVerifier() = default;
  virtual bool check_pte_fetch(PhysAddr pte_addr, u64 pte, Cycles* cost) = 0;
  /// Hardware A/D writeback rewrote a PTE in place — the verifier must
  /// re-sign the updated entry or the next fetch would self-veto.
  virtual void on_hw_pte_update(PhysAddr pte_addr, u64 pte) {
    (void)pte_addr;
    (void)pte;
  }
};

/// Inputs the walker needs from the current hart state.
struct TranslationContext {
  Privilege priv = Privilege::kMachine;  ///< Effective privilege of the access.
  bool sum = false;                      ///< mstatus.SUM
  bool mxr = false;                      ///< mstatus.MXR
};

class Mmu {
 public:
  /// The walker's mmu.* counters and both TLBs' counters register in `bank`.
  Mmu(PhysMem& mem, PmpUnit& pmp, const TlbConfig& itlb_cfg, const TlbConfig& dtlb_cfg,
      telemetry::CounterBank& bank, Cache* ptw_cache = nullptr, Cache* l2 = nullptr);

  /// Wire the owning core's cycle/instret/privilege state so PTW trace spans
  /// carry simulated timestamps. Purely observational — never affects timing.
  void set_clock(const u64* cycles, const u64* instret, const Privilege* priv) {
    clock_cycles_ = cycles;
    clock_instret_ = instret;
    clock_priv_ = priv;
  }

  void set_satp(u64 v) { satp_ = v; }
  u64 satp() const { return satp_; }

  /// Install (or remove, with nullptr) the walk-time PTE verifier.
  void set_walk_verifier(WalkVerifier* v) { verifier_ = v; }
  WalkVerifier* walk_verifier() const { return verifier_; }

  /// Translate `va` for an access of `type` issued by `kind`. Does NOT apply
  /// the PMP check on the final physical address — the core does that per
  /// access (which is what makes PTStore robust to stale TLB entries).
  ///
  /// The inline fast path, in this order: the identity map (M-mode or satp
  /// Bare), the canonical check, the TLB's memo branch, the leaf check and
  /// the D-bit rule. A memo miss goes to translate_scan() (TLB scan, then
  /// walk), a store through a clean entry to walk().
  TranslateResult translate(VirtAddr va, AccessType type, AccessKind kind,
                            const TranslationContext& ctx) {
    if (ctx.priv == Privilege::kMachine ||
        isa::satp::mode(satp_) == isa::satp::kModeBare) {
      TranslateResult res;
      res.ok = true;
      res.pa = va;
      return res;
    }
    if (!canonical(va)) [[unlikely]] {
      return noncanonical(type);
    }
    const u16 asid = static_cast<u16>(isa::satp::asid(satp_));
    Tlb& tlb = (type == AccessType::kExecute) ? itlb_ : dtlb_;
    if (const TlbEntry* e = tlb.lookup_memo(va, asid)) {
      return translate_hit(*e, va, type, kind, ctx);
    }
    return translate_scan(va, type, kind, ctx);
  }

  /// sfence.vma: flush both TLBs (all, by address, and/or by ASID).
  void sfence(std::optional<VirtAddr> va, std::optional<u16> asid);

  Tlb& itlb() { return itlb_; }
  Tlb& dtlb() { return dtlb_; }
  const Tlb& itlb() const { return itlb_; }
  const Tlb& dtlb() const { return dtlb_; }

  /// Reference (non-caching, non-faulting) translation used by property
  /// tests to cross-check the walker. Returns nullopt on any fault.
  std::optional<PhysAddr> reference_translate(VirtAddr va, AccessType type,
                                              const TranslationContext& ctx);

 private:
  /// Sv39 virtual addresses must be canonical: bits [63:39] replicate bit 38.
  static bool canonical(VirtAddr va) {
    const i64 s = static_cast<i64>(va);
    return (s << 25 >> 25) == s;
  }
  /// The page fault of a non-canonical `va`, counted.
  TranslateResult noncanonical(AccessType type);
  /// translate() for a TLB hit on `e`: the leaf check, then the D-bit rule
  /// (writes through an entry whose D bit is clear re-walk so hardware can
  /// set D, and so stale-clean entries behave like real TLBs).
  TranslateResult translate_hit(const TlbEntry& e, VirtAddr va, AccessType type,
                                AccessKind kind, const TranslationContext& ctx) {
    TranslateResult res;
    const isa::TrapCause fault = leaf_check(e.pte, type, ctx);
    if (fault != isa::TrapCause::kNone) {
      res.fault = fault;
      return res;
    }
    if (type == AccessType::kWrite && !(e.pte & pte::kD)) return walk(va, type, kind, ctx);
    const u64 off_mask = mask_lo(12 + 9 * e.level);
    res.ok = true;
    res.tlb_hit = true;
    res.pa = (pte::pa(e.pte) & ~off_mask) | (va & off_mask);
    res.leaf_pte = e.pte;
    res.level = e.level;
    return res;
  }
  /// translate() past the TLB memo: the TLB scan, then the walk on a miss.
  TranslateResult translate_scan(VirtAddr va, AccessType type, AccessKind kind,
                                 const TranslationContext& ctx);
  /// walk() wraps walk_impl() in an optional trace span; all PTW logic and
  /// cycle accounting live in walk_impl().
  TranslateResult walk(VirtAddr va, AccessType type, AccessKind kind,
                       const TranslationContext& ctx);
  TranslateResult walk_impl(VirtAddr va, AccessType type, AccessKind kind,
                            const TranslationContext& ctx);
  /// Apply leaf-PTE permission rules; returns kNone when access is allowed.
  static isa::TrapCause leaf_check(u64 leaf, AccessType type,
                                   const TranslationContext& ctx) {
    using isa::TrapCause;
    const bool u_page = (leaf & pte::kU) != 0;
    if (ctx.priv == Privilege::kUser && !u_page) return isa::page_fault_for(type);
    if (ctx.priv == Privilege::kSupervisor && u_page) {
      // SUM allows S-mode loads/stores to U pages, never instruction fetch.
      if (type == AccessType::kExecute || !ctx.sum) return isa::page_fault_for(type);
    }
    switch (type) {
      case AccessType::kRead: {
        const bool readable = (leaf & pte::kR) || (ctx.mxr && (leaf & pte::kX));
        if (!readable) return TrapCause::kLoadPageFault;
        break;
      }
      case AccessType::kWrite:
        if (!(leaf & pte::kW)) return TrapCause::kStorePageFault;
        break;
      case AccessType::kExecute:
        if (!(leaf & pte::kX)) return TrapCause::kInstPageFault;
        break;
    }
    return TrapCause::kNone;
  }

  PhysMem& mem_;
  PmpUnit& pmp_;
  Tlb itlb_;
  Tlb dtlb_;
  Cache* ptw_cache_;  ///< PTE fetches go through the D-cache when present.
  Cache* l2_;         ///< Optional L2 behind the D-cache.
  u64 satp_ = 0;
  WalkVerifier* verifier_ = nullptr;

  const u64* clock_cycles_ = nullptr;  ///< Owning core's cycle counter.
  const u64* clock_instret_ = nullptr;
  const Privilege* clock_priv_ = nullptr;

  telemetry::Counter noncanonical_;
  telemetry::Counter walks_;
  telemetry::Counter ptw_bad_addr_;
  telemetry::Counter ptw_secure_denied_;
  telemetry::Counter ptw_pmp_denied_;
  telemetry::Counter ptw_nonsecure_fetch_;
  telemetry::Counter ptw_verify_denied_;
  telemetry::Counter ad_updates_;
  telemetry::Counter sfences_;
};

}  // namespace ptstore
