#include "mmu/mmu.h"

#include "telemetry/trace.h"

namespace ptstore {

namespace {

u64 vpn_index(VirtAddr va, unsigned level) {
  return bits(va, 12 + 9 * level, 9);
}

constexpr Cycles kPtwLevelBaseCost = 2;  ///< Walker FSM cost per level.

}  // namespace

Mmu::Mmu(PhysMem& mem, PmpUnit& pmp, const TlbConfig& itlb_cfg,
         const TlbConfig& dtlb_cfg, telemetry::CounterBank& bank, Cache* ptw_cache,
         Cache* l2)
    : mem_(mem),
      pmp_(pmp),
      itlb_(itlb_cfg, bank),
      dtlb_(dtlb_cfg, bank),
      ptw_cache_(ptw_cache),
      l2_(l2),
      noncanonical_(bank.counter("mmu.noncanonical", "non-canonical VA faults")),
      walks_(bank.counter("mmu.walks", "hardware page-table walks")),
      ptw_bad_addr_(bank.counter("mmu.ptw_bad_addr", "PTE fetches outside DRAM")),
      ptw_secure_denied_(bank.counter(
          "mmu.ptw_secure_denied", "PTE fetches denied by the satp.S secure check")),
      ptw_pmp_denied_(bank.counter("mmu.ptw_pmp_denied", "PTE fetches denied by PMP")),
      ptw_nonsecure_fetch_(bank.counter(
          "mmu.ptw_nonsecure_fetch",
          "PTE fetches consumed from outside every PMP S=1 region")),
      ptw_verify_denied_(bank.counter(
          "mmu.ptw_verify_denied", "PTE fetches vetoed by the walk verifier")),
      ad_updates_(bank.counter("mmu.ad_updates", "hardware A/D bit writebacks")),
      sfences_(bank.counter("mmu.sfence", "sfence.vma executions")) {}

TranslateResult Mmu::noncanonical(AccessType type) {
  TranslateResult res;
  res.fault = isa::page_fault_for(type);
  noncanonical_.add();
  return res;
}

TranslateResult Mmu::translate_scan(VirtAddr va, AccessType type, AccessKind kind,
                                    const TranslationContext& ctx) {
  const u16 asid = static_cast<u16>(isa::satp::asid(satp_));
  Tlb& tlb = (type == AccessType::kExecute) ? itlb_ : dtlb_;
  if (const TlbEntry* e = tlb.lookup_scan(va, asid)) {
    return translate_hit(*e, va, type, kind, ctx);
  }
  return walk(va, type, kind, ctx);
}

TranslateResult Mmu::walk(VirtAddr va, AccessType type, AccessKind kind,
                          const TranslationContext& ctx) {
  telemetry::EventRing* tr = telemetry::tracing();
  telemetry::Profiler* pf = telemetry::profiling();
  if ((tr == nullptr && pf == nullptr) || clock_cycles_ == nullptr) {
    return walk_impl(va, type, kind, ctx);
  }

  // The walk's cycles are charged by the caller on top of the core clock, so
  // the span covers [now, now + res.cycles) in simulated time.
  const u64 now = *clock_cycles_;
  const u64 instret = *clock_instret_;
  const u8 priv = static_cast<u8>(*clock_priv_);
  if (tr != nullptr) {
    tr->begin(telemetry::Subsystem::kPtw, "ptw", now, instret, priv, va);
  }
  if (pf != nullptr) pf->push("ptw", telemetry::Subsystem::kPtw, now, priv);
  TranslateResult res = walk_impl(va, type, kind, ctx);
  const u64 end = now + res.cycles;
  if (pf != nullptr) {
    // The verifier's cycles are modeled as the tail of the walk: carve them
    // into a "ptw_verify" child so PTAuth's per-fetch MAC cost is a named
    // frame in flamegraphs and the differential attribution table.
    if (res.verify_cycles != 0 && res.verify_cycles <= res.cycles) {
      pf->push("ptw_verify", end - res.verify_cycles, priv);
      pf->pop(end, priv);
    }
    pf->pop(end, priv);
  }
  if (tr != nullptr) {
    tr->end(telemetry::Subsystem::kPtw, "ptw", end, instret, priv,
            res.ok ? 1 : 0);
  }
  return res;
}

TranslateResult Mmu::walk_impl(VirtAddr va, AccessType type, AccessKind kind,
                               const TranslationContext& ctx) {
  TranslateResult res;
  walks_.add();
  const bool secure_check = isa::satp::secure_check(satp_);
  PhysAddr table = isa::satp::ppn(satp_) << kPageShift;

  for (int level = 2; level >= 0; --level) {
    const PhysAddr pte_addr = table + vpn_index(va, static_cast<unsigned>(level)) * kPteSize;
    res.cycles += kPtwLevelBaseCost;
    if (ptw_cache_ != nullptr) {
      res.cycles += Cache::hierarchy_access(*ptw_cache_, l2_, pte_addr, false) +
                    ptw_cache_->config().hit_latency;
    }

    if (!mem_.is_dram(pte_addr, kPteSize)) {
      res.fault = isa::access_fault_for(type);
      ptw_bad_addr_.add();
      return res;
    }

    // PTStore: with satp.S set, the walker refuses PTE fetches from outside
    // the PMP secure region — injected page tables are unreachable.
    const PmpUnit::PteFetchView pv = pmp_.pte_fetch(pte_addr, ctx.priv);
    const bool nonsecure_pte = !pv.secure;
    if (secure_check && nonsecure_pte) {
      res.fault = isa::access_fault_for(type);
      ptw_secure_denied_.add();
      return res;
    }

    // Base PMP read check for the walker's own fetch.
    if (!pv.allowed) {
      res.fault = isa::access_fault_for(type);
      ptw_pmp_denied_.add();
      return res;
    }

    if (nonsecure_pte && pv.any_active) {
      res.fetched_nonsecure_pte = true;
      ptw_nonsecure_fetch_.add();
    }
    u64 entry = mem_.read_dram(pte_addr, kPteSize);
    // PTAuth-style verify-on-walk: the authentication unit checks every
    // fetched PTE before the walker consumes it; a MAC mismatch is an
    // access fault, like the satp.S deny above.
    if (verifier_ != nullptr) {
      Cycles vcost = 0;
      const bool pass = verifier_->check_pte_fetch(pte_addr, entry, &vcost);
      res.cycles += vcost;
      res.verify_cycles += vcost;
      if (!pass) {
        res.fault = isa::access_fault_for(type);
        ptw_verify_denied_.add();
        return res;
      }
    }
    if (!pte::valid(entry) || pte::malformed(entry)) {
      res.fault = isa::page_fault_for(type);
      return res;
    }

    if (pte::is_leaf(entry)) {
      // Misaligned superpage: low PPN bits of a level-N leaf must be zero.
      if (level > 0 && (pte::ppn(entry) & mask_lo(9 * static_cast<unsigned>(level))) != 0) {
        res.fault = isa::page_fault_for(type);
        return res;
      }
      const isa::TrapCause fault = leaf_check(entry, type, ctx);
      if (fault != isa::TrapCause::kNone) {
        res.fault = fault;
        return res;
      }
      // Hardware A/D update (Svadu-style), written back through the same
      // secure-checked PTE address.
      u64 updated = entry | pte::kA;
      if (type == AccessType::kWrite) updated |= pte::kD;
      if (updated != entry) {
        mem_.write_u64(pte_addr, updated);
        if (verifier_ != nullptr) verifier_->on_hw_pte_update(pte_addr, updated);
        entry = updated;
        res.cycles += 1;
        ad_updates_.add();
      }
      const u64 off_mask = mask_lo(12 + 9 * static_cast<unsigned>(level));
      res.ok = true;
      res.pa = (pte::pa(entry) & ~off_mask) | (va & off_mask);
      res.leaf_pte = entry;
      res.level = static_cast<unsigned>(level);
      Tlb& tlb = (type == AccessType::kExecute) ? itlb_ : dtlb_;
      tlb.insert(va, static_cast<u16>(isa::satp::asid(satp_)),
                 static_cast<unsigned>(level), entry, (entry & pte::kG) != 0);
      (void)kind;
      return res;
    }

    if (level == 0) {
      // Level-0 table pointer is malformed.
      res.fault = isa::page_fault_for(type);
      return res;
    }
    table = pte::pa(entry);
  }
  res.fault = isa::page_fault_for(type);
  return res;
}

void Mmu::sfence(std::optional<VirtAddr> va, std::optional<u16> asid) {
  itlb_.flush(va, asid);
  dtlb_.flush(va, asid);
  sfences_.add();
}

std::optional<PhysAddr> Mmu::reference_translate(VirtAddr va, AccessType type,
                                                 const TranslationContext& ctx) {
  if (ctx.priv == Privilege::kMachine ||
      isa::satp::mode(satp_) == isa::satp::kModeBare) {
    return va;
  }
  if (!canonical(va)) return std::nullopt;
  PhysAddr table = isa::satp::ppn(satp_) << kPageShift;
  for (int level = 2; level >= 0; --level) {
    const PhysAddr pte_addr = table + vpn_index(va, static_cast<unsigned>(level)) * kPteSize;
    if (!mem_.is_dram(pte_addr, kPteSize)) return std::nullopt;
    const u64 entry = mem_.read_u64(pte_addr);
    if (!pte::valid(entry) || pte::malformed(entry)) return std::nullopt;
    if (pte::is_leaf(entry)) {
      if (level > 0 && (pte::ppn(entry) & mask_lo(9 * static_cast<unsigned>(level))) != 0) {
        return std::nullopt;
      }
      if (leaf_check(entry, type, ctx) != isa::TrapCause::kNone) return std::nullopt;
      const u64 off_mask = mask_lo(12 + 9 * static_cast<unsigned>(level));
      return (pte::pa(entry) & ~off_mask) | (va & off_mask);
    }
    if (level == 0) return std::nullopt;
    table = pte::pa(entry);
  }
  return std::nullopt;
}

}  // namespace ptstore
