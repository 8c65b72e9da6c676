// Abstract value domain for the forward address analyses: an unsigned
// 64-bit interval [lo, hi] with Top = [0, 2^64-1]. The domain is tuned to
// the address-formation idioms the assembler emits — lui/auipc/addi/li
// constant chains stay exact, masked indices stay bounded, and everything
// else (loaded values, CSR reads) degrades soundly to Top.
//
// Wrapping rules: exact values wrap like hardware; a non-degenerate interval
// that would wrap around 2^64 (or lose bits in a shift) collapses to Top so
// the interval invariant lo <= hi always holds.
#pragma once

#include <array>
#include <string>

#include "common/types.h"

namespace ptstore::isa {
struct Inst;
}

namespace ptstore::analysis {

struct AbsVal {
  u64 lo = 0;
  u64 hi = ~u64{0};

  static AbsVal top() { return AbsVal{0, ~u64{0}}; }
  static AbsVal exact(u64 v) { return AbsVal{v, v}; }
  static AbsVal range(u64 lo, u64 hi) { return AbsVal{lo, hi}; }

  bool is_top() const { return lo == 0 && hi == ~u64{0}; }
  bool is_exact() const { return lo == hi; }

  bool operator==(const AbsVal& o) const { return lo == o.lo && hi == o.hi; }
  bool operator!=(const AbsVal& o) const { return !(*this == o); }

  /// Least upper bound.
  AbsVal join(const AbsVal& o) const {
    return AbsVal{lo < o.lo ? lo : o.lo, hi > o.hi ? hi : o.hi};
  }

  /// Interval relation to [base, end): fully inside, fully outside, or
  /// possibly overlapping.
  bool inside(u64 base, u64 end) const { return lo >= base && hi < end; }
  bool outside(u64 base, u64 end) const { return hi < base || lo >= end; }
  bool may_overlap(u64 base, u64 end) const { return !outside(base, end); }

  // ---- transfer helpers (all sound: imprecision only widens) ----

  /// x + y. Exact+exact wraps like hardware; intervals collapse to Top when
  /// the upper bound would wrap.
  static AbsVal add(const AbsVal& a, const AbsVal& b) {
    if (a.is_exact() && b.is_exact()) return exact(a.lo + b.lo);
    const u64 nlo = a.lo + b.lo;
    const u64 nhi = a.hi + b.hi;
    if (nhi < a.hi || nlo > nhi) return top();
    return AbsVal{nlo, nhi};
  }

  /// x + sext(imm), the `addi` / memory-offset shape. Shifting the whole
  /// interval by a (possibly negative) constant keeps its width; it stays an
  /// interval exactly when the two's-complement shift does not rotate order.
  static AbsVal add_imm(const AbsVal& a, i64 imm) {
    const u64 c = static_cast<u64>(imm);
    const u64 nlo = a.lo + c;
    const u64 nhi = a.hi + c;
    if (a.is_exact()) return exact(nlo);
    if (nlo > nhi) return top();
    return AbsVal{nlo, nhi};
  }

  /// x - y.
  static AbsVal sub(const AbsVal& a, const AbsVal& b) {
    if (a.is_exact() && b.is_exact()) return exact(a.lo - b.lo);
    if (a.lo >= b.hi) return AbsVal{a.lo - b.hi, a.hi - b.lo};
    return top();
  }

  /// x << n.
  static AbsVal shl(const AbsVal& a, unsigned n) {
    if (n >= 64) return exact(0);
    if (a.is_exact()) return exact(a.lo << n);
    if ((a.hi << n) >> n != a.hi) return top();
    return AbsVal{a.lo << n, a.hi << n};
  }

  /// x >> n (logical).
  static AbsVal shr(const AbsVal& a, unsigned n) {
    if (n >= 64) return exact(0);
    return AbsVal{a.lo >> n, a.hi >> n};
  }

  /// x & imm for non-negative masks: the result fits [0, imm].
  static AbsVal and_imm(const AbsVal& a, i64 imm) {
    if (a.is_exact()) return exact(a.lo & static_cast<u64>(imm));
    if (imm >= 0) return AbsVal{0, a.hi < static_cast<u64>(imm) ? a.hi : static_cast<u64>(imm)};
    return top();
  }

  /// 32-bit wrap + sign-extend (the addiw/*w family result shape).
  static AbsVal sext_w(const AbsVal& a) {
    if (a.is_exact()) {
      return exact(static_cast<u64>(static_cast<i64>(static_cast<i32>(a.lo))));
    }
    // A sub-[0, 2^31) interval is unchanged by the wrap; anything else Top.
    if (a.hi < (u64{1} << 31)) return a;
    return top();
  }

  std::string describe() const;
};

/// One interval per architectural register (x0 pinned to exact 0).
using RegIntervals = std::array<AbsVal, 32>;

/// Function-entry register file: every register Top, x0 exact 0.
RegIntervals entry_intervals();

/// Per-register interval hull of `src` into `dst`; true when any grew.
bool join_intervals(RegIntervals& dst, const RegIntervals& src);

/// Shared forward transfer for one instruction's register effect: constants,
/// address arithmetic and the jal/jalr link write (rd = pc + 4) stay
/// precise, everything unmodelled (loads, CSR reads, mul/div, compares)
/// degrades soundly to Top. Used by ptlint, ptflow and the call-graph
/// resolver so the analyses can never disagree on address formation.
void interval_step(u64 pc, const isa::Inst& in, RegIntervals& regs);

}  // namespace ptstore::analysis
