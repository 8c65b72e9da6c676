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
  /// agent `kind` with intent `type`. Always equals scan().
  PmpDecision check(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                    Privilege priv) const {
    const u64 page = pa >> kPageShift;
    if (size == 0 || (pa + size - 1) >> kPageShift != page) {
      return scan(pa, size, type, kind, priv);
    }
    const u64 tag = page << 6 | u64{static_cast<u8>(type)} << 4 |
                    u64{static_cast<u8>(kind)} << 2 | u64{static_cast<u8>(priv)};
    MemoSlot& slot = memo_[(tag * 0x9E3779B97F4A7C15ULL) >> (64 - kMemoBits)];
    if (slot.tag == tag && slot.gen == write_gen_) return slot.decision;
    bool page_uniform = true;
    const PmpDecision d = scan(pa, size, type, kind, priv, &page_uniform);
    if (page_uniform) slot = MemoSlot{tag, write_gen_, d};
    return d;
  }
  /// check() without the decision memo: the priority scan over the entries.
  /// With `page_uniform`, also clears *page_uniform if an entry the scan
  /// considered has a boundary strictly inside pa's page. When it stays
  /// set, every entry before the deciding one misses the page and that one
  /// covers all of it, so every access inside the page gets this decision.
  PmpDecision scan(PhysAddr pa, u64 size, AccessType type, AccessKind kind,
                   Privilege priv, bool* page_uniform = nullptr) const;

  /// True if the whole range lies inside some active S=1 entry. Used by the
  /// MMU for the satp.S page-table-walker check.
  bool is_secure(PhysAddr pa, u64 size) const;

  /// Defence-mutation hook (analysis/ptmc): with enforcement off, the S bit
  /// loses its access-kind semantics — S=1 entries behave as plain R/W/X
  /// regions for every instruction and ld.pt/sd.pt are no longer confined
  /// to them. is_secure() (the walker-side view used by the satp.S check)
  /// is deliberately unaffected, so the two defences stay independently
  /// toggleable. Counts as a configuration write for write_gen().
  void set_secure_enforcement(bool on) {
    ++write_gen_;
    secure_enforcement_ = on;
  }
  bool secure_enforcement() const { return secure_enforcement_; }

  /// Range [base, end) of entry idx per its match mode; nullopt if OFF.
  std::optional<std::pair<PhysAddr, PhysAddr>> entry_range(unsigned idx) const;

  /// True if any entry is active (A != OFF). When false, S/U accesses are
  /// allowed (nothing is configured yet — pre-boot state).
  bool any_active() const;

  /// Bumped on every pmpcfg/pmpaddr write attempt (even ones a locked entry
  /// ignores). check() is pure, so a cached decision stays valid while this
  /// counter is unchanged — the decision memo and the decode cache rely on
  /// that.
  u64 write_gen() const { return write_gen_; }

  std::string describe() const;

 private:
  PmpMatch match_mode(unsigned idx) const {
    return static_cast<PmpMatch>((cfg_[idx] & pmpcfg::kAMask) >> pmpcfg::kAShift);
  }

  struct MemoSlot {
    u64 tag = ~u64{0};  ///< page << 6 | type << 4 | kind << 2 | priv.
    u64 gen = ~u64{0};  ///< write_gen_ when filled.
    PmpDecision decision;
  };
  static constexpr unsigned kMemoBits = 8;

  std::array<u8, kPmpEntryCount> cfg_{};
  std::array<u64, kPmpEntryCount> addr_{};
  u64 write_gen_ = 0;
  bool secure_enforcement_ = true;
  mutable std::array<MemoSlot, std::size_t{1} << kMemoBits> memo_{};
};

}  // namespace ptstore
