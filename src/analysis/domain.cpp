#include "analysis/domain.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/bits.h"

namespace ptstore::analysis {

namespace {

constexpr u64 kSignBit = u64{1} << 63;

/// Every bit at or below v's highest set bit (0 for v == 0).
u64 fill_below(u64 v) { return mask_lo(static_cast<unsigned>(std::bit_width(v))); }

/// Count of consecutive known bits starting at bit 0.
unsigned trailing_known(const Domain& d) {
  return static_cast<unsigned>(std::countr_one(d.kmask));
}

/// Shared shape of the binary transfers: bottom in, bottom out; otherwise
/// `rule` narrows ⊤ to the result, which leaves reduced.
template <typename Rule>
Domain transfer(const Domain& a, const Domain& b, Rule&& rule) {
  Domain r;
  if (a.bottom || b.bottom) {
    r.bottom = true;
    return r;
  }
  rule(r);
  r.reduce();
  return r;
}

}  // namespace

Domain Domain::join(const Domain& o) const {
  if (bottom) return o;
  if (o.bottom) return *this;
  const u64 agree = kmask & o.kmask & ~(kval ^ o.kval);
  return Domain{std::min(lo, o.lo), std::max(hi, o.hi), agree, kval & agree, false};
}

void Domain::meet_interval(u64 nlo, u64 nhi) {
  if (bottom) return;
  lo = std::max(lo, nlo);
  hi = std::min(hi, nhi);
  if (lo > hi) bottom = true;
}

void Domain::meet_known(u64 nmask, u64 nval) {
  if (bottom) return;
  nval &= nmask;
  const u64 both = kmask & nmask;
  if ((kval & both) != (nval & both)) {
    bottom = true;
    return;
  }
  kmask |= nmask;
  kval |= nval;
}

void Domain::meet(const Domain& other) {
  if (other.bottom) {
    bottom = true;
    return;
  }
  meet_interval(other.lo, other.hi);
  meet_known(other.kmask, other.kval);
}

void Domain::reduce() {
  if (bottom) return;
  for (int round = 0; round < 2 && !bottom; ++round) {
    // Interval → known bits: the common high-order prefix of lo and hi is
    // fixed for every value in [lo,hi].
    if (lo == hi) {
      meet_known(~u64{0}, lo);
    } else {
      const u64 prefix = ~fill_below(lo ^ hi);
      if (prefix) meet_known(prefix, lo & prefix);
    }
    if (bottom) return;
    // Known bits → interval: every matching value lies in
    // [kval, kval | ~kmask] (free bits all-0 / all-1).
    meet_interval(kval, kval | ~kmask);
  }
}

std::string Domain::describe() const {
  std::ostringstream os;
  if (is_top()) {
    os << "[top]";
  } else if (lo == hi) {
    os << "0x" << std::hex << lo;
  } else {
    os << "[0x" << std::hex << lo << ", 0x" << hi << "]";
  }
  return os.str();
}

Domain Domain::add(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    // The interval survives when both ends wrap alike: neither, or both
    // (a negative offset shifts the whole interval down).
    const u64 lo = a.lo + b.lo;
    const u64 hi = a.hi + b.hi;
    if ((lo < a.lo) == (hi < a.hi)) r.meet_interval(lo, hi);
    const unsigned t = std::min(trailing_known(a), trailing_known(b));
    r.meet_known(mask_lo(t), a.kval + b.kval);
  });
}

Domain Domain::sub(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    // As for add: both ends borrow alike, or the interval is lost.
    if ((a.lo < b.hi) == (a.hi < b.lo)) r.meet_interval(a.lo - b.hi, a.hi - b.lo);
    const unsigned t = std::min(trailing_known(a), trailing_known(b));
    r.meet_known(mask_lo(t), a.kval - b.kval);
  });
}

Domain Domain::bit_and(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    const u64 zero = (a.kmask & ~a.kval) | (b.kmask & ~b.kval);
    const u64 one = (a.kmask & a.kval) & (b.kmask & b.kval);
    r.meet_known(zero | one, one);
    r.meet_interval(0, std::min(a.hi, b.hi));
  });
}

Domain Domain::bit_or(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    const u64 one = (a.kmask & a.kval) | (b.kmask & b.kval);
    const u64 zero = (a.kmask & ~a.kval) & (b.kmask & ~b.kval);
    r.meet_known(zero | one, one);
    r.meet_interval(std::max(a.lo, b.lo), fill_below(a.hi | b.hi));
  });
}

Domain Domain::bit_xor(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    const u64 both = a.kmask & b.kmask;
    r.meet_known(both, a.kval ^ b.kval);
    r.meet_interval(0, fill_below(a.hi | b.hi));
  });
}

Domain Domain::shl(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    if (!b.is_singleton()) return;
    const unsigned s = static_cast<unsigned>(b.lo & 63);
    r.meet_known((a.kmask << s) | mask_lo(s), a.kval << s);
    if (a.hi <= (~u64{0} >> s)) r.meet_interval(a.lo << s, a.hi << s);
  });
}

Domain Domain::shrl(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    if (!b.is_singleton()) return;
    const unsigned s = static_cast<unsigned>(b.lo & 63);
    r.meet_known((a.kmask >> s) | ~(~u64{0} >> s), a.kval >> s);
    r.meet_interval(a.lo >> s, a.hi >> s);
  });
}

Domain Domain::shra(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    if (!b.is_singleton()) return;
    const unsigned s = static_cast<unsigned>(b.lo & 63);
    if (a.hi < kSignBit) {
      // Provably non-negative: behaves like a logical shift.
      r.meet_known((a.kmask >> s) | ~(~u64{0} >> s), a.kval >> s);
      r.meet_interval(a.lo >> s, a.hi >> s);
    } else if (a.kmask & kSignBit) {
      const u64 ext = (a.kval & kSignBit) ? ~(~u64{0} >> s) : 0;
      r.meet_known((a.kmask >> s) | ~(~u64{0} >> s), (a.kval >> s) | ext);
    }
  });
}

Domain Domain::mul(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    if (a.is_singleton() && b.is_singleton())
      r = exact(a.lo * b.lo);
    else if (b.is_singleton() && b.lo != 0 && a.hi <= ~u64{0} / b.lo)
      r.meet_interval(a.lo * b.lo, a.hi * b.lo);
    else if (a.is_singleton() && a.lo != 0 && b.hi <= ~u64{0} / a.lo)
      r.meet_interval(a.lo * b.lo, a.lo * b.hi);
  });
}

Domain Domain::cmp_eq(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    r.meet_interval(0, 1);
    if (a.hi < b.lo || b.hi < a.lo)
      r.meet_interval(0, 0);  // disjoint: never equal
    else if (a.is_singleton() && b.is_singleton() && a.lo == b.lo)
      r.meet_interval(1, 1);
  });
}

Domain Domain::cmp_ne(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    r.meet_interval(0, 1);
    if (a.hi < b.lo || b.hi < a.lo)
      r.meet_interval(1, 1);
    else if (a.is_singleton() && b.is_singleton() && a.lo == b.lo)
      r.meet_interval(0, 0);
  });
}

Domain Domain::cmp_ltu(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    r.meet_interval(0, 1);
    if (a.hi < b.lo) r.meet_interval(1, 1);
    else if (a.lo >= b.hi) r.meet_interval(0, 0);
  });
}

Domain Domain::cmp_lts(const Domain& a, const Domain& b) {
  return transfer(a, b, [&](Domain& r) {
    r.meet_interval(0, 1);
    if (a.sign_contiguous() && b.sign_contiguous()) {
      // Compare under the 2^63 bias, where signed order is unsigned order.
      if ((a.hi ^ kSignBit) < (b.lo ^ kSignBit)) r.meet_interval(1, 1);
      else if ((a.lo ^ kSignBit) >= (b.hi ^ kSignBit)) r.meet_interval(0, 0);
    }
  });
}

Domain Domain::sext_w(const Domain& a) {
  return transfer(a, a, [&](Domain& r) {  // unary: a fills both slots
    if (a.is_singleton()) {
      r = exact(static_cast<u64>(static_cast<i64>(static_cast<i32>(a.lo))));
      return;
    }
    // Low 32 known bits survive; if bit 31 is known the top 32 bits are its
    // copies.
    r.meet_known(a.kmask & 0xFFFFFFFFu, a.kval & 0xFFFFFFFFu);
    if (a.kmask & 0x80000000u) {
      r.meet_known(~u64{0} << 31, (a.kval & 0x80000000u) ? (~u64{0} << 31) : 0);
    }
    if (a.hi < 0x80000000u) r.meet_interval(a.lo, a.hi);
  });
}

}  // namespace ptstore::analysis
