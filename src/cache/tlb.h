// Fully-associative TLB model with ASID tagging and Sv39 superpage support.
// The paper's prototype uses a 32-entry I-TLB and an 8-entry D-TLB.
//
// TLB entries cache the *virtual* permission bits of a translation. PTStore's
// key point against TLB-inconsistency attacks (paper §V-E5) is that its
// secure-region check is physical (PMP) and applied on every access — so a
// stale writable TLB entry still cannot write the secure region. The model
// deliberately reproduces stale-entry behaviour so the attack scenario is
// faithful.
//
// Host-speed notes. Counters are handles into the owning core's
// telemetry::CounterBank. A one-entry memo answers a repeat lookup of the
// previous hit's (vpn, asid) without rescanning. Only a real scan hit sets
// the memo, and insert/flush drop it, so it always returns the entry the
// scan would, with the same tick and LRU update. The memo branch is inline
// below; the scan stays out of line in tlb.cpp.
//
// memo_gen() numbers the memo's states: it changes whenever the memo is set
// or dropped. While it is unchanged, the memo still covers the same (vpn,
// asid) and the same entry, whose contents only insert() can change. The
// core's fetch memo keys on it and calls replay_memo_hits(n) in place of n
// lookups, with the identical effect.
#pragma once

#include <optional>
#include <vector>

#include "common/types.h"
#include "telemetry/metrics.h"

namespace ptstore {

/// One cached translation. `level` is the Sv39 leaf level: 0 = 4 KiB page,
/// 1 = 2 MiB, 2 = 1 GiB superpage.
struct TlbEntry {
  bool valid = false;
  bool global = false;
  u16 asid = 0;
  VirtAddr vpn = 0;  ///< VA >> 12, canonical low 27 bits.
  unsigned level = 0;
  u64 pte = 0;  ///< Raw leaf PTE (permissions + PPN).
  u64 lru_tick = 0;
};

struct TlbConfig {
  std::string name = "TLB";
  unsigned entries = 32;
  Cycles hit_latency = 0;  ///< Folded into the access pipeline.
};

class Tlb {
 public:
  /// Registers <name>.{hits,misses,fills,flushes} in `bank`.
  Tlb(const TlbConfig& cfg, telemetry::CounterBank& bank)
      : cfg_(cfg),
        slots_(cfg.entries),
        hits_(bank.counter(cfg.name + ".hits", "TLB hits")),
        misses_(bank.counter(cfg.name + ".misses", "TLB misses")),
        fills_(bank.counter(cfg.name + ".fills", "TLB fills")),
        flushes_(bank.counter(cfg.name + ".flushes", "sfence.vma flushes")) {}

  /// Look up virtual address `va` under `asid`. Superpage entries match any
  /// VA within their reach.
  const TlbEntry* lookup(VirtAddr va, u16 asid) {
    const u64 vpn = (va >> kPageShift) & kVpnMask;
    // Repeat of the previous hit: no insert/flush ran since (those drop the
    // memo), so the same entry is still the scan's first match.
    if (last_entry_ != nullptr && vpn == last_vpn_ && asid == last_asid_) {
      return replay_memo_hits(1);
    }
    return lookup_scan(vpn, asid);
  }

  /// Exactly what `n` lookups taking the memo branch do. Callers must know
  /// the memo covers their (vpn, asid): memo_gen() unchanged since a lookup
  /// of that pair hit.
  const TlbEntry* replay_memo_hits(u64 n) {
    tick_ += n;
    last_entry_->lru_tick = tick_;
    hits_.add(n);
    return last_entry_;
  }

  /// Changes whenever the lookup memo is set or dropped (see file comment).
  u64 memo_gen() const { return memo_gen_; }

  /// Insert a translation; evicts LRU.
  void insert(VirtAddr va, u16 asid, unsigned level, u64 pte, bool global);

  /// sfence.vma semantics. `va`/`asid` of nullopt mean "all".
  void flush(std::optional<VirtAddr> va, std::optional<u16> asid);

  const TlbConfig& config() const { return cfg_; }

  unsigned occupancy() const;

 private:
  static constexpr u64 kVpnMask = (u64{1} << 27) - 1;  ///< Sv39 VPN bits.
  static u64 vpn_mask(unsigned level);
  /// lookup() past the memo: first-match scan of every slot.
  const TlbEntry* lookup_scan(u64 vpn, u16 asid);
  void drop_memo() {
    last_entry_ = nullptr;
    ++memo_gen_;
  }

  TlbConfig cfg_;
  std::vector<TlbEntry> slots_;
  u64 tick_ = 0;

  // Memo of the previous scan hit; cleared whenever entries change shape
  // (insert can create a duplicate match — e.g. the D-bit-clear re-walk —
  // and the scan's first-match order must be preserved exactly).
  VirtAddr last_vpn_ = ~u64{0};
  u16 last_asid_ = 0;
  TlbEntry* last_entry_ = nullptr;
  u64 memo_gen_ = 0;

  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter fills_;
  telemetry::Counter flushes_;
};

}  // namespace ptstore
