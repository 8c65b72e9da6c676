// Sv39 MMU: TLBs plus a hardware page-table walker implementing PTStore's
// satp.S secure-region check — when enabled, every PTE fetch of the walk
// must land in a PMP S=1 region or the access takes an access fault
// (paper §III-C2 / §IV-A1). This is the mechanism that defeats PT-Injection:
// a hijacked page-table pointer aimed at attacker-controlled normal memory
// simply cannot be walked.
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
  TranslateResult translate(VirtAddr va, AccessType type, AccessKind kind,
                            const TranslationContext& ctx);

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
  /// walk() wraps walk_impl() in an optional trace span; all PTW logic and
  /// cycle accounting live in walk_impl().
  TranslateResult walk(VirtAddr va, AccessType type, AccessKind kind,
                       const TranslationContext& ctx);
  TranslateResult walk_impl(VirtAddr va, AccessType type, AccessKind kind,
                            const TranslationContext& ctx);
  /// Apply leaf-PTE permission rules; returns kNone when access is allowed.
  isa::TrapCause leaf_check(u64 leaf, AccessType type, const TranslationContext& ctx) const;

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
