// RISC-V Physical Memory Protection unit with PTStore's secure-region
// extension.
//
// Standard PMP (priv. spec v1.11): 16 entries, each a cfg byte
// {R,W,X,A[1:0],L} plus a pmpaddr register. PTStore adds a new S ("secure")
// bit at cfg bit 5 (reserved in the base spec). Semantics added by PTStore:
//
//   * An access matching an S=1 entry is allowed only when issued by the
//     ld.pt/sd.pt instructions (AccessKind::kPtInsn) or by the page-table
//     walker (AccessKind::kPtw). Regular instructions take an access fault.
//   * ld.pt/sd.pt accesses that do NOT land in an S=1 entry take an access
//     fault: the new instructions may access *only* the secure region.
//   * The PTW-side "must fetch PTEs from the secure region" rule is gated by
//     satp.S and enforced by the MMU using is_secure() below.
//
// Host-speed notes. The core checks the physical address of every access,
// TLB hits included, so check() must be cheap. PmpUnit compiles its 16
// entries into a region map: the sorted elementary intervals their
// boundaries cut the address space into (at most 33). Every entry covers
// an interval wholly or not at all, so each interval records its
// lowest-index covering entry, whether any S=1 entry covers it, and
// scan()'s verdict for every (type, kind, privilege) — the S-bit
// enforcement switch included. check(), is_secure() and any_active() are
// lookups in it, each starting at the interval of the previous one.
// The map is recompiled lazily, on the first lookup after write_gen()
// moves, so a checkpoint restore's 32 register writes cost one rebuild. An
// access that straddles an interval edge or wraps past 2^64 is answered by
// scan() (and is_secure_scan()), which stay the reference; so is every
// access if an entry's range could wrap (pmpaddr holds bits [55:2], so the
// largest range, NAPOT [0, 2^57), never does). write_gen() also still
// guards the decode cache's blocks, whose fetch checks ran at build time.
// The oracle is Pmp.RegionMapMatchesScan in tests/pmp/pmp_test.cpp.
#pragma once

#include <array>
#include <optional>
#include <string>

#include "common/types.h"

namespace ptstore {

inline constexpr unsigned kPmpEntryCount = 16;

/// pmpcfg bit positions.
namespace pmpcfg {
inline constexpr u8 kR = 1u << 0;
inline constexpr u8 kW = 1u << 1;
inline constexpr u8 kX = 1u << 2;
inline constexpr u8 kAShift = 3;  // A field: bits [4:3]
inline constexpr u8 kAMask = 0b11u << kAShift;
inline constexpr u8 kS = 1u << 5;  // PTStore secure bit (reserved in base spec)
inline constexpr u8 kL = 1u << 7;
}  // namespace pmpcfg

/// PMP address-matching modes (A field).
enum class PmpMatch : u8 {
  kOff = 0,
  kTor = 1,
  kNa4 = 2,
  kNapot = 3,
};

/// Why a PMP check failed (for diagnostics and tests).
enum class PmpDenyReason : u8 {
  kNone = 0,
  kNoMatch,             ///< S/U access matched no active entry.
  kPermission,          ///< Matched entry lacks R/W/X permission.
  kSecureRegular,       ///< Regular instruction touched an S=1 region (paper ②).
  kPtInsnOutsideSecure, ///< ld.pt/sd.pt touched a non-secure region.
  kPartialMatch,        ///< Access straddles an entry boundary.
};

struct PmpDecision {
  bool allowed = false;
  PmpDenyReason reason = PmpDenyReason::kNone;
  int entry = -1;  ///< Matching entry index, -1 if none.
};

class PmpUnit {
 public:
  PmpUnit() = default;

  /// CSR-style accessors. `idx` is the entry number (0..15). Locked entries
  /// ignore writes (as in hardware).
  void set_cfg(unsigned idx, u8 cfg);
  u8 cfg(unsigned idx) const { return cfg_.at(idx); }
  /// pmpaddr registers hold address bits [55:2] (i.e. addr >> 2).
  void set_addr(unsigned idx, u64 pmpaddr);
  u64 addr(unsigned idx) const { return addr_.at(idx); }

  /// Full check of an access [pa, pa+size) issued at privilege `priv` by
  /// agent `kind` with intent `type`: one region-map lookup. Always equals
  /// scan().
  PmpDecision check(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                    Privilege priv) const {
    const Region* r = region_of(pa, size, hint_);
    if (r == nullptr) return scan(pa, size, type, kind, priv);
    const auto reason = static_cast<PmpDenyReason>(
        r->verdict[verdict_index(type, kind, priv)]);
    return {reason == PmpDenyReason::kNone, reason, r->entry};
  }
  /// The reference check: the priority scan over the 16 entries.
  PmpDecision scan(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                   Privilege priv) const;

  /// True if the whole range lies inside some active S=1 entry. Used by the
  /// MMU for the satp.S page-table-walker check.
  bool is_secure(PhysAddr pa, u64 size) const {
    const Region* r = region_of(pa, size, ptw_hint_);
    return r != nullptr ? r->secure : is_secure_scan(pa, size);
  }
  /// is_secure() by the loop over the 16 entries (the reference).
  bool is_secure_scan(PhysAddr pa, u64 size) const;

  /// Defence-mutation hook (analysis/ptmc): with enforcement off, the S bit
  /// loses its access-kind semantics — S=1 entries behave as plain R/W/X
  /// regions for every instruction and ld.pt/sd.pt are no longer confined
  /// to them. is_secure() (the walker-side view used by the satp.S check)
  /// is deliberately unaffected, so the two defences stay independently
  /// toggleable. Counts as a configuration write for write_gen(): the
  /// region map compiles the enforcement into its verdicts.
  void set_secure_enforcement(bool on) {
    ++write_gen_;
    secure_enforcement_ = on;
  }
  bool secure_enforcement() const { return secure_enforcement_; }

  /// Range [base, end) of entry idx per its match mode; nullopt if OFF.
  std::optional<std::pair<PhysAddr, PhysAddr>> entry_range(unsigned idx) const;

  /// True if any entry is active (A != OFF). When false, S/U accesses are
  /// allowed (nothing is configured yet — pre-boot state).
  bool any_active() const {
    refresh_map();
    return map_any_active_;
  }

  /// The walker's three questions about the PTE at `pte_addr`, answered by
  /// one region-map lookup: is_secure(), check() of a PTW read at `priv`,
  /// and any_active().
  struct PteFetchView {
    bool secure = false;
    bool allowed = false;
    bool any_active = false;
  };
  PteFetchView pte_fetch(PhysAddr pte_addr, Privilege priv) const {
    if (const Region* r = region_of(pte_addr, kPteSize, ptw_hint_)) {
      return {r->secure,
              r->verdict[verdict_index(AccessType::kRead, AccessKind::kPtw, priv)] ==
                  static_cast<u8>(PmpDenyReason::kNone),
              map_any_active_};
    }
    return {is_secure_scan(pte_addr, kPteSize),
            scan(pte_addr, kPteSize, AccessType::kRead, AccessKind::kPtw, priv).allowed,
            map_any_active_};
  }

  /// Bumped on every pmpcfg/pmpaddr write attempt (even ones a locked entry
  /// ignores) and every set_secure_enforcement(). check() is pure, so a
  /// decision stays valid while this counter is unchanged: the region map
  /// recompiles when it moves, and the decode cache's blocks (whose fetch
  /// checks ran at build) are dropped when it moves.
  u64 write_gen() const { return write_gen_; }

  std::string describe() const;

 private:
  /// One elementary interval of the region map: a maximal address range
  /// that no active entry's boundary cuts. Every entry either covers all of
  /// it or none of it, so one decision holds for any access inside it.
  struct Region {
    PhysAddr start = 0;
    PhysAddr last = 0;  ///< Inclusive end (the next region's start - 1).
    i8 entry = -1;      ///< Lowest-index covering entry, -1 if none.
    bool secure = false;  ///< Some S=1 entry covers it.
    /// scan()'s deny reason (kNone: allowed) per verdict_index().
    std::array<u8, 36> verdict{};
  };
  /// At most 32 distinct boundaries plus address 0.
  static constexpr unsigned kMaxRegions = 2 * kPmpEntryCount + 1;

  static unsigned verdict_index(AccessType type, AccessKind kind, Privilege priv) {
    return static_cast<unsigned>(type) * 12 + static_cast<unsigned>(kind) * 4 +
           static_cast<unsigned>(priv);
  }

  PmpMatch match_mode(unsigned idx) const {
    return static_cast<PmpMatch>((cfg_[idx] & pmpcfg::kAMask) >> pmpcfg::kAShift);
  }
  /// any_active() by a scan of the cfg registers.
  bool cfg_any_active() const;
  /// scan()'s decision for an access that entry `idx` contains, or that no
  /// entry overlaps (idx < 0).
  PmpDecision decide(int idx, AccessType type, AccessKind kind, Privilege priv,
                     bool any_active) const;

  /// Recompile the region map if write_gen() moved since it was built.
  void refresh_map() const {
    if (map_gen_ != write_gen_) rebuild_map();
  }
  void rebuild_map() const;
  /// The region holding all of [pa, pa+size), or nullptr when the access is
  /// empty, wraps past 2^64 or straddles a region edge, or the map cannot
  /// answer (an entry range wraps): then only scan() decides. The search
  /// starts at `hint`, the region of the previous lookup of its kind, and
  /// leaves it at the region found.
  const Region* region_of(PhysAddr pa, u64 size, unsigned& hint) const {
    refresh_map();
    const PhysAddr hi = pa + size - 1;
    if (size == 0 || hi < pa || map_count_ == 0) return nullptr;
    if (pa < regions_[hint].start || pa > regions_[hint].last) hint = find_region(pa);
    const Region& r = regions_[hint];
    return hi <= r.last ? &r : nullptr;
  }
  /// The index of the region containing `pa` (binary search over starts).
  unsigned find_region(PhysAddr pa) const {
    unsigned lo = 0;  // regions_[0].start == 0 <= pa.
    unsigned n = map_count_;
    while (n > 1) {
      const unsigned half = n / 2;
      if (regions_[lo + half].start <= pa) lo += half;
      n -= half;
    }
    return lo;
  }

  // The fields every lookup reads come first, in one cache line.
  u64 write_gen_ = 0;
  mutable u64 map_gen_ = ~u64{0};  ///< write_gen_ the region map was built at.
  /// Where region_of() starts looking: the region of the previous check(),
  /// and of the previous walker-side query (is_secure, pte_fetch), which
  /// mostly land in the secure region while data accesses land outside it.
  mutable unsigned hint_ = 0;
  mutable unsigned ptw_hint_ = 0;
  mutable unsigned map_count_ = 0;  ///< 0: some entry range wraps; scan only.
  mutable bool map_any_active_ = false;
  bool secure_enforcement_ = true;

  // The region map, compiled from the registers below by rebuild_map().
  mutable std::array<Region, kMaxRegions> regions_{};

  std::array<u8, kPmpEntryCount> cfg_{};
  std::array<u64, kPmpEntryCount> addr_{};
};

}  // namespace ptstore
