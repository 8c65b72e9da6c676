// The shared abstract value: unit cases for the interval behaviour every
// client relies on, a seeded property test of each transfer function
// (soundness against concrete execution, and no interval wider than the
// interval-only rules the analyses used before known bits joined them),
// and the engine's widening rule under known-bits-only joins.
#include "analysis/domain.h"

#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "analysis/dataflow.h"
#include "analysis/effects.h"
#include "common/bits.h"
#include "common/rng.h"
#include "isa/inst.h"

namespace ptstore::analysis {
namespace {

constexpr u64 kMax = ~u64{0};

Domain imm(i64 v) { return Domain::exact(static_cast<u64>(v)); }

void expect_interval(const Domain& d, u64 lo, u64 hi) {
  EXPECT_FALSE(d.bottom);
  EXPECT_EQ(d.lo, lo) << d.describe();
  EXPECT_EQ(d.hi, hi) << d.describe();
}

TEST(Domain, Basics) {
  EXPECT_TRUE(Domain::top().is_top());
  EXPECT_TRUE(Domain::exact(42).is_singleton());
  EXPECT_EQ(Domain::exact(42).lo, 42u);
  EXPECT_FALSE(Domain::range(1, 2).is_singleton());
  EXPECT_EQ(Domain::exact(7), Domain::exact(7));
  EXPECT_NE(Domain::exact(7), Domain::exact(8));
}

TEST(Domain, Join) {
  const Domain j = Domain::exact(10).join(Domain::exact(20));
  expect_interval(j, 10, 20);
  EXPECT_TRUE(j.contains(10) && j.contains(20));
  EXPECT_TRUE(j.join(Domain::top()).is_top());
  expect_interval(Domain::range(5, 8).join(Domain::range(6, 12)), 5, 12);
  // Known bits survive only where both sides know and agree.
  const Domain aligned = Domain::exact(0x100).join(Domain::exact(0x208));
  EXPECT_EQ(aligned.kmask & 7, 7u);
  EXPECT_EQ(aligned.kval & 7, 0u);
}

TEST(Domain, RegionRelations) {
  const u64 base = 0x1000, end = 0x2000;
  EXPECT_TRUE(Domain::exact(0x1000).inside(base, end));
  EXPECT_TRUE(Domain::exact(0x1FFF).inside(base, end));
  EXPECT_TRUE(Domain::exact(0x2000).outside(base, end));
  EXPECT_TRUE(Domain::exact(0xFFF).outside(base, end));
  EXPECT_TRUE(Domain::range(0x800, 0x1800).may_overlap(base, end));
  EXPECT_FALSE(Domain::range(0x800, 0x1800).inside(base, end));
  EXPECT_TRUE(Domain::top().may_overlap(base, end));
  EXPECT_FALSE(Domain::top().inside(base, end));
}

TEST(Domain, AddWraps) {
  EXPECT_EQ(Domain::add(Domain::exact(3), Domain::exact(4)), Domain::exact(7));
  // Exact values wrap like hardware.
  EXPECT_EQ(Domain::add(Domain::exact(kMax), Domain::exact(2)), Domain::exact(1));
  // A sum whose upper end wraps but lower end does not is no interval.
  EXPECT_TRUE(
      Domain::add(Domain::range(kMax - 1, kMax), Domain::range(0, 4)).is_top());
  expect_interval(Domain::add(Domain::range(10, 20), Domain::range(1, 2)), 11, 22);
}

TEST(Domain, AddImmShiftsInterval) {
  expect_interval(Domain::add(Domain::range(0x100, 0x200), imm(-0x10)), 0xF0, 0x1F0);
  EXPECT_EQ(Domain::add(Domain::exact(8), imm(-16)), Domain::exact(kMax - 7));
  // [0, 8] - 4 straddles zero: lo wraps, hi does not.
  EXPECT_TRUE(Domain::add(Domain::range(0, 8), imm(-4)).is_top());
}

TEST(Domain, Sub) {
  EXPECT_EQ(Domain::sub(Domain::exact(10), Domain::exact(4)), Domain::exact(6));
  expect_interval(Domain::sub(Domain::range(100, 200), Domain::range(10, 20)), 80,
                  190);
  EXPECT_TRUE(Domain::sub(Domain::range(0, 10), Domain::range(5, 6)).is_top());
}

TEST(Domain, Shifts) {
  expect_interval(Domain::shl(Domain::range(1, 4), imm(3)), 8, 32);
  // Bits shifted out: only the known-zero low bits remain, which is ⊤ for
  // an address.
  EXPECT_TRUE(Domain::shl(Domain::range(0, u64{1} << 62), imm(3)).is_top());
  EXPECT_EQ(Domain::shl(Domain::exact(1), imm(63)), Domain::exact(u64{1} << 63));
  expect_interval(Domain::shrl(Domain::range(8, 32), imm(3)), 1, 4);
  expect_interval(Domain::shrl(Domain::top(), imm(63)), 0, 1);
}

TEST(Domain, AndMask) {
  expect_interval(Domain::bit_and(Domain::top(), imm(0xFF)), 0, 0xFF);
  expect_interval(Domain::bit_and(Domain::range(0, 7), imm(0xFF)), 0, 7);
  EXPECT_EQ(Domain::bit_and(Domain::exact(0x1234), imm(0xFF)), Domain::exact(0x34));
  // A negative mask clears the only bits [1, 2] can have set.
  EXPECT_EQ(Domain::bit_and(Domain::range(1, 2), imm(-8)), Domain::exact(0));
}

TEST(Domain, SextW) {
  EXPECT_EQ(Domain::sext_w(Domain::exact(0xFFFF'FFFF)), Domain::exact(kMax));
  EXPECT_EQ(Domain::sext_w(Domain::exact(0x1'0000'0001)), Domain::exact(1));
  expect_interval(Domain::sext_w(Domain::range(0x100, 0x7FFF'0000)), 0x100,
                  0x7FFF'0000);
  EXPECT_TRUE(Domain::sext_w(Domain::range(0, u64{1} << 31)).is_top());
}

TEST(Domain, SignedOverflowAndWholeWrap) {
  // Exact values wrap like hardware even across the signed boundary.
  EXPECT_EQ(Domain::add(Domain::exact(0x7FFF'FFFF'FFFF'FFFF), Domain::exact(1)),
            Domain::exact(u64{1} << 63));
  EXPECT_EQ(Domain::add(Domain::exact(u64{1} << 63), imm(-1)),
            Domain::exact(0x7FFF'FFFF'FFFF'FFFF));
  // An interval whose bounds BOTH wrap keeps its width and stays
  // representable, for a constant or an interval operand alike...
  expect_interval(Domain::add(Domain::range(kMax - 4, kMax), imm(8)), 3, 7);
  expect_interval(Domain::add(Domain::range(kMax - 1, kMax), imm(2)), 0, 1);
  // ...but a partial wrap would rotate lo past hi, which the unsigned
  // interval cannot express: it must lose the interval, never invert.
  EXPECT_TRUE(Domain::add(Domain::range(kMax - 4, kMax), imm(2)).is_top());
  // Shifting the sign bit out loses information the interval can't keep.
  EXPECT_TRUE(Domain::shl(Domain::range(1, u64{1} << 62), imm(2)).is_top());
}

TEST(Domain, StackSlotBelowPointer) {
  // `sd x, -8(sp)` with sp in a range: the whole interval shifts down.
  RegIntervals regs = entry_intervals();
  regs[2] = Domain::range(0x8000'1000, 0x8000'2000);
  isa::Inst sd;
  sd.op = isa::Op::kSd;
  sd.rs1 = 2;
  sd.rs2 = 5;
  sd.imm = -8;
  expect_interval(classify_access(sd, regs).addr, 0x8000'0FF8, 0x8000'1FF8);
}

TEST(Domain, Describe) {
  EXPECT_EQ(Domain::top().describe(), "[top]");
  EXPECT_EQ(Domain::exact(0x1F).describe(), "0x1f");
  EXPECT_EQ(Domain::range(0x10, 0x20).describe(), "[0x10, 0x20]");
  // An aligned unknown pointer is still unconstrained.
  EXPECT_EQ(Domain::shl(Domain::top(), imm(3)).describe(), "[top]");
}

// ---- seeded property test over the transfer table ----

/// The interval-only transfer rules the analyses ran before known bits
/// joined the interval, kept as the precision oracle: the shared Domain
/// transfers must never produce a wider interval than these.
struct Interval {
  u64 lo = 0;
  u64 hi = kMax;
  bool exact() const { return lo == hi; }
};
constexpr Interval kTopInterval{};

Interval ref_add(Interval a, Interval b) {
  if (a.exact() && b.exact()) return {a.lo + b.lo, a.lo + b.lo};
  const u64 lo = a.lo + b.lo, hi = a.hi + b.hi;
  if (b.exact()) return lo > hi ? kTopInterval : Interval{lo, hi};  // addi form
  if (hi < a.hi || lo > hi) return kTopInterval;
  return {lo, hi};
}
Interval ref_sub(Interval a, Interval b) {
  if (a.exact() && b.exact()) return {a.lo - b.lo, a.lo - b.lo};
  if (a.lo >= b.hi) return {a.lo - b.hi, a.hi - b.lo};
  return kTopInterval;
}
Interval ref_and_imm(Interval a, u64 m) {
  if (a.exact()) return {a.lo & m, a.lo & m};
  if (static_cast<i64>(m) >= 0) return {0, a.hi < m ? a.hi : m};
  return kTopInterval;
}
Interval ref_and(Interval a, Interval b) {
  if (b.exact()) return ref_and_imm(a, b.lo);
  if (a.exact()) return ref_and_imm(b, a.lo);
  return kTopInterval;
}
Interval ref_or(Interval a, Interval b) {
  if (a.exact() && b.exact()) return {a.lo | b.lo, a.lo | b.lo};
  return kTopInterval;
}
Interval ref_xor(Interval a, Interval b) {
  if (a.exact() && b.exact()) return {a.lo ^ b.lo, a.lo ^ b.lo};
  return kTopInterval;
}
Interval ref_shl(Interval a, Interval b) {
  if (!b.exact()) return kTopInterval;  // No register-amount shift rule.
  const unsigned n = static_cast<unsigned>(b.lo & 63);
  if (a.exact()) return {a.lo << n, a.lo << n};
  if ((a.hi << n) >> n != a.hi) return kTopInterval;
  return {a.lo << n, a.hi << n};
}
Interval ref_shrl(Interval a, Interval b) {
  if (!b.exact()) return kTopInterval;
  const unsigned n = static_cast<unsigned>(b.lo & 63);
  return {a.lo >> n, a.hi >> n};
}
Interval ref_shra(Interval a, Interval b) {
  if (!a.exact() || !b.exact()) return kTopInterval;
  const u64 v = static_cast<u64>(static_cast<i64>(a.lo) >> (b.lo & 63));
  return {v, v};
}
Interval ref_sext_w(Interval a, Interval) {
  if (a.exact()) {
    const u64 v = static_cast<u64>(static_cast<i64>(static_cast<i32>(a.lo)));
    return {v, v};
  }
  return a.hi < (u64{1} << 31) ? a : kTopInterval;
}

u64 sext32(u64 v) { return static_cast<u64>(static_cast<i64>(static_cast<i32>(v))); }

struct Transfer {
  const char* name;
  Domain (*abstract)(const Domain&, const Domain&);
  u64 (*concrete)(u64, u64);
  Interval (*ref)(Interval, Interval);  // nullptr: soundness only
  bool shift;                           // b is usually a small exact amount
};

const Transfer kTransfers[] = {
    {"add", Domain::add, [](u64 x, u64 y) { return x + y; }, ref_add, false},
    {"sub", Domain::sub, [](u64 x, u64 y) { return x - y; }, ref_sub, false},
    {"and", Domain::bit_and, [](u64 x, u64 y) { return x & y; }, ref_and, false},
    {"or", Domain::bit_or, [](u64 x, u64 y) { return x | y; }, ref_or, false},
    {"xor", Domain::bit_xor, [](u64 x, u64 y) { return x ^ y; }, ref_xor, false},
    {"shl", Domain::shl, [](u64 x, u64 y) { return x << (y & 63); }, ref_shl, true},
    {"shrl", Domain::shrl, [](u64 x, u64 y) { return x >> (y & 63); }, ref_shrl,
     true},
    {"shra", Domain::shra,
     [](u64 x, u64 y) { return static_cast<u64>(static_cast<i64>(x) >> (y & 63)); },
     ref_shra, true},
    {"sext_w", [](const Domain& a, const Domain&) { return Domain::sext_w(a); },
     [](u64 x, u64) { return sext32(x); }, ref_sext_w, false},
    {"mul", Domain::mul, [](u64 x, u64 y) { return x * y; }, nullptr, false},
    {"eq", Domain::cmp_eq, [](u64 x, u64 y) -> u64 { return x == y; }, nullptr, false},
    {"ne", Domain::cmp_ne, [](u64 x, u64 y) -> u64 { return x != y; }, nullptr, false},
    {"ltu", Domain::cmp_ltu, [](u64 x, u64 y) -> u64 { return x < y; }, nullptr,
     false},
    {"lts", Domain::cmp_lts,
     [](u64 x, u64 y) -> u64 { return static_cast<i64>(x) < static_cast<i64>(y); },
     nullptr, false},
};

/// A random reduced domain plus concrete values it contains.
struct Sample {
  Domain d;
  std::vector<u64> members;
};

u64 interesting(Rng& rng) {
  static const u64 kEdges[] = {0,
                               1,
                               7,
                               0x1000,
                               0x7FFF'FFFF,
                               0x8000'0000,
                               0xFFFF'FFFF,
                               0x1'0000'0000,
                               0x8000'1000,
                               0x7FFF'FFFF'FFFF'FFFF,
                               u64{1} << 63,
                               kMax - 7,
                               kMax};
  const u64 pick = rng.next_below(3);
  if (pick == 0) return kEdges[rng.next_below(std::size(kEdges))];
  if (pick == 1) return rng.next_below(0x10000);
  return rng.next_u64();
}

Sample random_sample(Rng& rng, bool small_exact) {
  Sample s;
  const u64 x = small_exact ? rng.next_below(64) : interesting(rng);
  switch (small_exact ? 0 : rng.next_below(5)) {
    case 0:
      s.d = Domain::exact(x);
      break;
    case 1:
      s.d = Domain::top();
      break;
    case 2: {  // narrow range around x, clipped at the top of the space
      const u64 w = rng.next_below(0x1000);
      s.d = Domain::range(x, x + w < x ? kMax : x + w);
      break;
    }
    case 3: {  // wide range around x
      const u64 w = rng.next_u64() >> rng.next_below(64);
      s.d = Domain::range(x - (w > x ? x : w), x + w < x ? kMax : x + w);
      break;
    }
    default: {  // any range containing x
      const u64 y = interesting(rng);
      s.d = Domain::range(x < y ? x : y, x < y ? y : x);
      break;
    }
  }
  if (!s.d.is_singleton() && rng.next_below(2) == 0) {
    // Known bits of x: low alignment bits, or a sparse random mask.
    const u64 mask = rng.next_below(2) == 0 ? mask_lo(static_cast<unsigned>(rng.next_below(8)))
                                            : rng.next_u64() & rng.next_u64();
    s.d.meet_known(mask, x & mask);
  }
  s.d.reduce();
  s.members.push_back(x);
  for (int i = 0; i < 6; ++i) {
    const u64 span = s.d.hi - s.d.lo;
    u64 v = s.d.lo + (span == kMax ? rng.next_u64() : rng.next_below(span + 1));
    v = (v & ~s.d.kmask) | s.d.kval;
    if (s.d.contains(v)) s.members.push_back(v);
  }
  return s;
}

TEST(DomainProperty, TransfersAreSoundAndNoWiderThanIntervalRules) {
  Rng rng(0xD0A1);
  for (const Transfer& t : kTransfers) {
    for (int iter = 0; iter < 4000; ++iter) {
      const Sample a = random_sample(rng, false);
      const Sample b = random_sample(rng, t.shift && rng.next_below(4) != 0);
      ASSERT_TRUE(a.d.contains(a.members[0]) && b.d.contains(b.members[0]));
      const Domain r = t.abstract(a.d, b.d);
      ASSERT_FALSE(r.bottom) << t.name;
      for (const u64 x : a.members) {
        for (const u64 y : b.members) {
          ASSERT_TRUE(r.contains(t.concrete(x, y)))
              << t.name << std::hex << " x=0x" << x << " y=0x" << y << " a="
              << a.d.describe() << " b=" << b.d.describe() << " r=" << r.describe()
              << " kmask=0x" << r.kmask << " kval=0x" << r.kval;
        }
      }
      if (t.ref == nullptr) continue;
      const Interval ref = t.ref({a.d.lo, a.d.hi}, {b.d.lo, b.d.hi});
      ASSERT_TRUE(r.lo >= ref.lo && r.hi <= ref.hi)
          << t.name << std::hex << " a=" << a.d.describe() << " b=" << b.d.describe()
          << " r=" << r.describe() << " wider than [0x" << ref.lo << ", 0x" << ref.hi
          << "]";
    }
  }
}

TEST(DomainProperty, LinkWriteIsExactReturnAddress) {
  Rng rng(0x11A7);
  for (const isa::Op op : {isa::Op::kJal, isa::Op::kJalr}) {
    for (int iter = 0; iter < 256; ++iter) {
      RegIntervals regs = entry_intervals();
      isa::Inst in;
      in.op = op;
      in.rd = static_cast<u8>(1 + rng.next_below(31));
      in.rs1 = static_cast<u8>(rng.next_below(32));
      in.imm = static_cast<i64>(rng.next_below(4096)) - 2048;
      const u64 pc = rng.next_u64() & ~u64{3};
      interval_step(pc, in, regs);
      EXPECT_EQ(regs[in.rd], Domain::exact(pc + 4));
    }
  }
}

// ---- widening ----

struct RegState {
  RegIntervals regs = entry_intervals();
  bool reached = false;
  bool join_from(const RegState& o) {
    if (reached) return join_intervals(regs, o.regs);
    *this = o;
    return true;
  }
};

TEST(DomainWidening, KnownBitsOnlyJoinsDoNotCount) {
  // Bits 0..7 of an unchanged interval [0x100, 0xF00] are lost one join at
  // a time — more than kWidenAfter joins that change only known bits.
  static_assert(7 > kWidenAfter);
  Dataflow<RegState> df;
  RegState st;
  st.reached = true;
  st.regs[5] = Domain::range(0x100, 0xF00);
  st.regs[5].meet_known(0xFF, 0);
  st.regs[5].reduce();
  df.seed(0, st);
  for (unsigned keep = 7; keep > 0; --keep) {
    RegState weaker = st;
    weaker.regs[5].kmask &= ~mask_lo(8 - keep);
    df.propagate(0, weaker);
  }
  expect_interval(df.state_at(0)->regs[5], 0x100, 0xF00);
  // The first interval change is no reason to widen.
  RegState grown = st;
  grown.regs[5] = Domain::range(0x100, 0x1000);
  df.propagate(0, grown);
  expect_interval(df.state_at(0)->regs[5], 0x100, 0x1000);
}

TEST(DomainWidening, RepeatedIntervalGrowthGoesToTop) {
  Dataflow<RegState> df;
  RegState st;
  st.reached = true;
  st.regs[5] = Domain::exact(0x100);
  df.seed(0, st);
  for (int i = 1; i <= kWidenAfter + 1; ++i) {
    RegState next = st;
    next.regs[5] = Domain::exact(0x100 + 0x10 * static_cast<u64>(i));
    df.propagate(0, next);
  }
  EXPECT_TRUE(df.state_at(0)->regs[5].is_top());
}

}  // namespace
}  // namespace ptstore::analysis
