// The one abstract value of src/analysis: a reduced product of an unsigned
// 64-bit interval [lo, hi] and known bits (kmask, kval). The dataflow
// engine's register file (ptlint, ptflow, the call-graph resolver) and
// ptsym's constraint solver hold the same Domain and run the same transfer
// functions below, so every analysis agrees on address formation.
//
// The interval keeps the address-formation idioms the assembler emits
// exact — lui/auipc/addi/li constant chains, masked indices, constant
// offsets — and the known bits keep what the interval cannot: alignment
// after `slli`/`andi`, low bits through `or`/`xor`. Every transfer is
// sound (imprecision only widens) and returns a reduced domain; inputs are
// assumed reduced, which top(), exact(), join() and the transfers maintain.
//
// Wrapping: exact values wrap like hardware. An interval sum or difference
// stays an interval when both ends wrap alike — neither, or both, as in
// `addi rd, rs, -N` and `sd x, -8(sp)` — and otherwise keeps only what the
// known bits say.
#pragma once

#include <string>

#include "common/types.h"

namespace ptstore::analysis {

struct Domain {
  u64 lo = 0;
  u64 hi = ~u64{0};
  u64 kmask = 0;  // bit set => bit of the value is known
  u64 kval = 0;   // known bit values (subset of kmask)
  bool bottom = false;

  static Domain top() { return Domain{}; }
  static Domain exact(u64 v) { return Domain{v, v, ~u64{0}, v, false}; }
  static Domain range(u64 lo, u64 hi) {
    Domain d;
    d.lo = lo;
    d.hi = hi;
    d.bottom = lo > hi;
    return d;
  }

  bool operator==(const Domain&) const = default;

  bool is_singleton() const { return !bottom && lo == hi; }
  /// Unconstrained: the interval says no more than the known bits and
  /// spans the sign bit, so at most the value's alignment is known. An
  /// aligned or low-bit-tagged unknown pointer is as unconstrained as ⊤.
  bool is_top() const {
    return !bottom && (kmask >> 63) == 0 && lo == kval && hi == (kval | ~kmask);
  }
  bool contains(u64 v) const {
    return !bottom && v >= lo && v <= hi && (v & kmask) == kval;
  }
  /// The interval lies on one side of the 2^63 signed bias boundary.
  bool sign_contiguous() const { return (lo >> 63) == (hi >> 63); }

  /// Interval relation to [base, end): fully inside, fully outside, or
  /// possibly overlapping.
  bool inside(u64 base, u64 end) const { return lo >= base && hi < end; }
  bool outside(u64 base, u64 end) const { return hi < base || lo >= end; }
  bool may_overlap(u64 base, u64 end) const { return !outside(base, end); }

  /// Least upper bound: interval hull, known bits = the bits both sides
  /// know and agree on. The join of reduced domains is reduced.
  Domain join(const Domain& o) const;
  /// Meet with another interval; may go bottom.
  void meet_interval(u64 nlo, u64 nhi);
  /// Meet with known bits; conflicting known bits go bottom.
  void meet_known(u64 nmask, u64 nval);
  void meet(const Domain& other);
  /// Re-establish the reduced product: interval common-prefix bits become
  /// known bits, and the known-bits envelope [kval, kval|~kmask] clamps the
  /// interval. Sound both ways: no value passing contains() before
  /// reduce() is excluded after.
  void reduce();

  /// The interval only: "[top]", "0x1f" or "[0x10, 0x20]".
  std::string describe() const;

  // ---- transfer functions: the one table for every analysis ----
  static Domain add(const Domain& a, const Domain& b);
  static Domain sub(const Domain& a, const Domain& b);
  static Domain bit_and(const Domain& a, const Domain& b);
  static Domain bit_or(const Domain& a, const Domain& b);
  static Domain bit_xor(const Domain& a, const Domain& b);
  /// Shifts take the amount from a singleton `b` (mod 64); otherwise ⊤.
  static Domain shl(const Domain& a, const Domain& b);
  static Domain shrl(const Domain& a, const Domain& b);
  static Domain shra(const Domain& a, const Domain& b);
  static Domain mul(const Domain& a, const Domain& b);
  /// Comparisons yield 0 or 1.
  static Domain cmp_eq(const Domain& a, const Domain& b);
  static Domain cmp_ne(const Domain& a, const Domain& b);
  static Domain cmp_ltu(const Domain& a, const Domain& b);
  static Domain cmp_lts(const Domain& a, const Domain& b);
  /// 32-bit wrap + sign-extend (the addiw/*w family result shape).
  static Domain sext_w(const Domain& a);
};

}  // namespace ptstore::analysis
