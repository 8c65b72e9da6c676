#include "analysis/symexec/solver.h"

#include <algorithm>
#include <bit>

#include "common/bits.h"

namespace ptstore::analysis::symexec {

namespace {

constexpr u64 kSignBit = u64{1} << 63;

}  // namespace

const char* solve_status_name(SolveStatus s) {
  switch (s) {
    case SolveStatus::kSat: return "sat";
    case SolveStatus::kUnsat: return "unsat";
    case SolveStatus::kBudget: return "budget";
  }
  return "?";
}

Solver::Solver(const ExprArena& arena, u32 split_budget)
    : arena_(arena), budget_(split_budget) {}

void Solver::require(ExprId node, Domain d) {
  constraints_.push_back({node, d});
  note_support(node);
}

void Solver::note_support(ExprId node) {
  std::vector<InputId> ids;
  arena_.collect_inputs(node, ids);
  for (InputId in : ids) {
    // Find the arena node for this input: inputs are minted with their node
    // appended immediately, so scan once (arena is small per path).
    for (u32 i = 0; i < arena_.size(); ++i) {
      const ExprNode& n = arena_.node(i);
      if (n.op == ExprOp::kInput && n.input == in) {
        if (std::find(support_inputs_.begin(), support_inputs_.end(), i) ==
            support_inputs_.end())
          support_inputs_.push_back(i);
        break;
      }
    }
  }
}

void Solver::forward(std::vector<Domain>& doms, ExprId id) {
  const ExprNode& n = arena_.node(id);
  const Domain none = Domain::top();  // operand slot a leaf leaves empty
  const Domain& a = n.a == kNoExpr ? none : doms[n.a];
  const Domain& b = n.b == kNoExpr ? none : doms[n.b];
  Domain r;
  switch (n.op) {
    case ExprOp::kConst: r = Domain::exact(n.cval); break;
    case ExprOp::kInput: return;  // its domain comes from meets only
    case ExprOp::kSextW: r = Domain::sext_w(a); break;
    case ExprOp::kAdd: r = Domain::add(a, b); break;
    case ExprOp::kSub: r = Domain::sub(a, b); break;
    case ExprOp::kAnd: r = Domain::bit_and(a, b); break;
    case ExprOp::kOr: r = Domain::bit_or(a, b); break;
    case ExprOp::kXor: r = Domain::bit_xor(a, b); break;
    case ExprOp::kShl: r = Domain::shl(a, b); break;
    case ExprOp::kShrl: r = Domain::shrl(a, b); break;
    case ExprOp::kShra: r = Domain::shra(a, b); break;
    case ExprOp::kMul: r = Domain::mul(a, b); break;
    case ExprOp::kEq: r = Domain::cmp_eq(a, b); break;
    case ExprOp::kNe: r = Domain::cmp_ne(a, b); break;
    case ExprOp::kLtu: r = Domain::cmp_ltu(a, b); break;
    case ExprOp::kLts: r = Domain::cmp_lts(a, b); break;
  }
  doms[id].meet(r);
  doms[id].reduce();
}

void Solver::backward(std::vector<Domain>& doms, ExprId id) {
  const ExprNode& n = arena_.node(id);
  const Domain& r = doms[id];
  if (r.bottom || n.op == ExprOp::kConst || n.op == ExprOp::kInput) return;

  // Shift children into place, meeting refined domains back in.
  auto refine_shifted_add = [&](ExprId child, u64 delta, bool add) {
    // child = r -/+ delta; valid only when the shifted interval stays
    // contiguous (no mixed wraparound).
    const u64 x = add ? r.lo + delta : r.lo - delta;
    const u64 y = add ? r.hi + delta : r.hi - delta;
    if (x <= y) doms[child].meet_interval(x, y);
    const unsigned t = static_cast<unsigned>(std::countr_one(r.kmask));
    if (t > 0)
      doms[child].meet_known(mask_lo(t),
                             (add ? r.kval + delta : r.kval - delta) &
                                 mask_lo(t));
    doms[child].reduce();
  };

  switch (n.op) {
    case ExprOp::kAdd: {
      if (doms[n.b].is_singleton()) refine_shifted_add(n.a, doms[n.b].lo, false);
      if (doms[n.a].is_singleton()) refine_shifted_add(n.b, doms[n.a].lo, false);
      break;
    }
    case ExprOp::kSub: {
      if (doms[n.b].is_singleton()) refine_shifted_add(n.a, doms[n.b].lo, true);
      if (doms[n.a].is_singleton()) {
        // b = a - r
        const u64 s = doms[n.a].lo;
        const u64 x = s - r.hi, y = s - r.lo;
        if (x <= y) doms[n.b].meet_interval(x, y);
        doms[n.b].reduce();
      }
      break;
    }
    case ExprOp::kAnd: {
      auto refine_and = [&](ExprId child, const Domain& mask_dom) {
        if (!mask_dom.is_singleton()) return;
        const u64 m = mask_dom.lo;
        if (r.kmask & r.kval & ~m) {
          doms[child].bottom = true;  // result has a 1 where the mask is 0
          return;
        }
        doms[child].meet_known(m & r.kmask, r.kval & m);
        doms[child].reduce();
      };
      refine_and(n.a, doms[n.b]);
      refine_and(n.b, doms[n.a]);
      break;
    }
    case ExprOp::kOr: {
      auto refine_or = [&](ExprId child, const Domain& mask_dom) {
        if (!mask_dom.is_singleton()) return;
        const u64 m = mask_dom.lo;
        if (r.kmask & ~r.kval & m) {
          doms[child].bottom = true;  // result has a 0 where the mask is 1
          return;
        }
        doms[child].meet_known(~m & r.kmask, r.kval & ~m);
        doms[child].reduce();
      };
      refine_or(n.a, doms[n.b]);
      refine_or(n.b, doms[n.a]);
      break;
    }
    case ExprOp::kXor: {
      auto refine_xor = [&](ExprId child, const Domain& mask_dom) {
        if (!mask_dom.is_singleton()) return;
        doms[child].meet_known(r.kmask, (r.kval ^ mask_dom.lo) & r.kmask);
        doms[child].reduce();
      };
      refine_xor(n.a, doms[n.b]);
      refine_xor(n.b, doms[n.a]);
      break;
    }
    case ExprOp::kShl:
      if (doms[n.b].is_singleton()) {
        const unsigned s = static_cast<unsigned>(doms[n.b].lo & 63);
        if (r.kmask & r.kval & mask_lo(s)) {
          doms[n.a].bottom = true;  // low bits of a left shift must be zero
          break;
        }
        doms[n.a].meet_known(mask_lo(64 - s) & (r.kmask >> s), r.kval >> s);
        doms[n.a].reduce();
      }
      break;
    case ExprOp::kShrl:
      if (doms[n.b].is_singleton()) {
        const unsigned s = static_cast<unsigned>(doms[n.b].lo & 63);
        if (s > 0 && (r.kmask & r.kval & ~(~u64{0} >> s))) {
          doms[n.a].bottom = true;  // top bits of a logical right shift are 0
          break;
        }
        doms[n.a].meet_known(r.kmask << s, r.kval << s);
        if (r.hi <= (~u64{0} >> s))
          doms[n.a].meet_interval(r.lo << s, (r.hi << s) | mask_lo(s));
        doms[n.a].reduce();
      }
      break;
    case ExprOp::kEq:
    case ExprOp::kNe: {
      const bool forced_true =
          r.is_singleton() && (r.lo == 1) == (n.op == ExprOp::kEq);
      const bool forced_false =
          r.is_singleton() && (r.lo == 1) != (n.op == ExprOp::kEq);
      if (forced_true) {
        Domain both = doms[n.a];
        both.meet(doms[n.b]);
        both.reduce();
        doms[n.a].meet(both);
        doms[n.b].meet(both);
        doms[n.a].reduce();
        doms[n.b].reduce();
      } else if (forced_false) {
        auto trim = [&](ExprId child, const Domain& other) {
          if (!other.is_singleton()) return;
          Domain& d = doms[child];
          if (d.bottom) return;
          if (d.is_singleton() && d.lo == other.lo) {
            d.bottom = true;
          } else if (d.lo == other.lo) {
            d.meet_interval(d.lo + 1, d.hi);
            d.reduce();
          } else if (d.hi == other.lo) {
            d.meet_interval(d.lo, d.hi - 1);
            d.reduce();
          }
        };
        trim(n.a, doms[n.b]);
        trim(n.b, doms[n.a]);
      }
      break;
    }
    case ExprOp::kLtu:
    case ExprOp::kLts: {
      if (!r.is_singleton()) break;
      const bool biased = n.op == ExprOp::kLts;
      Domain a = doms[n.a];
      Domain b = doms[n.b];
      if (biased) {
        if (!a.sign_contiguous() || !b.sign_contiguous()) break;
        a.lo ^= kSignBit;
        a.hi ^= kSignBit;
        b.lo ^= kSignBit;
        b.hi ^= kSignBit;
        a.kmask = a.kval = 0;  // known bits do not survive the bias cheaply
        b.kmask = b.kval = 0;
      }
      if (r.lo == 1) {
        // a < b: a <= b.hi - 1, b >= a.lo + 1.
        if (b.hi == 0) {
          doms[n.a].bottom = true;
          break;
        }
        a.meet_interval(a.lo, b.hi - 1);
        if (a.lo == ~u64{0}) {
          doms[n.b].bottom = true;
          break;
        }
        b.meet_interval(a.lo + 1, b.hi);
      } else {
        // a >= b.
        a.meet_interval(b.lo, a.hi);
        b.meet_interval(b.lo, a.hi);
      }
      if (biased) {
        a.lo ^= kSignBit;
        a.hi ^= kSignBit;
        b.lo ^= kSignBit;
        b.hi ^= kSignBit;
        if (a.lo > a.hi || b.lo > b.hi) break;  // wrapped back: skip
        doms[n.a].meet_interval(a.lo, a.hi);
        doms[n.b].meet_interval(b.lo, b.hi);
      } else {
        doms[n.a].meet(a);
        doms[n.b].meet(b);
      }
      doms[n.a].reduce();
      doms[n.b].reduce();
      break;
    }
    case ExprOp::kSextW: {
      // Push the low 32 result bits back into the operand (bits 63..32 of
      // the result are sign copies and carry no extra information).
      doms[n.a].meet_known(r.kmask & 0xFFFFFFFFu, r.kval & 0xFFFFFFFFu);
      doms[n.a].reduce();
      break;
    }
    default:
      break;
  }
}

bool Solver::propagate(std::vector<Domain>& doms,
                       const std::vector<Split>& splits) {
  const u32 n = arena_.size();
  doms.assign(n, Domain::top());
  for (int iter = 0; iter < 4; ++iter) {
    // Children precede parents (arena is append-only), so one forward sweep
    // in id order reaches a fixpoint of the forward transfers.
    for (u32 i = 0; i < n; ++i) forward(doms, i);
    for (const Split& c : constraints_) {
      doms[c.node].meet(c.dom);
      doms[c.node].reduce();
    }
    for (const Split& s : splits) {
      doms[s.node].meet(s.dom);
      doms[s.node].reduce();
    }
    for (u32 i = n; i-- > 0;) backward(doms, i);
    for (u32 i = 0; i < n; ++i)
      if (doms[i].bottom) return false;
  }
  return true;
}

std::vector<u64> Solver::pick(const std::vector<Domain>& doms) {
  std::vector<u64> assign(arena_.input_count(), 0);
  for (ExprId node : support_inputs_) {
    const InputId in = arena_.node(node).input;
    const Domain& d = doms[node];
    const InputInfo& info = arena_.input_info(in);
    u64 v = d.lo;
    if (info.has_preferred && d.contains(info.preferred)) {
      v = info.preferred;
    } else if (d.contains(d.lo)) {
      v = d.lo;
    } else if (d.contains(d.kval)) {
      v = d.kval;  // free bits zero
    } else {
      const u64 forced = (d.lo & ~d.kmask) | d.kval;
      if (d.contains(forced)) v = forced;
      else if (d.contains(d.hi)) v = d.hi;
    }
    assign[in] = v;
  }
  // Unsupported inputs keep their preferred value (secret sentinels must
  // materialise even when no constraint mentions them).
  for (InputId in = 0; in < arena_.input_count(); ++in) {
    const InputInfo& info = arena_.input_info(in);
    bool supported = false;
    for (ExprId node : support_inputs_)
      supported = supported || arena_.node(node).input == in;
    if (!supported && info.has_preferred) assign[in] = info.preferred;
  }
  return assign;
}

bool Solver::concrete_ok(const std::vector<u64>& assign,
                         const GoalCheck& goal) {
  for (const Split& c : constraints_)
    if (!c.dom.contains(arena_.eval(c.node, assign))) return false;
  return !goal || goal(assign);
}

SolveStatus Solver::search(std::vector<Split>& splits, const GoalCheck& goal,
                           SolveResult& out) {
  std::vector<Domain> doms;
  if (!propagate(doms, splits)) return SolveStatus::kUnsat;

  const std::vector<u64> assign = pick(doms);
  if (concrete_ok(assign, goal)) {
    out.assign = assign;
    return SolveStatus::kSat;
  }

  // Split the widest supported input.
  ExprId widest = kNoExpr;
  u64 width = 0;
  for (ExprId node : support_inputs_) {
    const Domain& d = doms[node];
    const u64 w = d.hi - d.lo;
    if (w > width || (widest == kNoExpr && w > 0)) {
      width = w;
      widest = node;
    }
  }
  if (widest == kNoExpr || width == 0) {
    // Every supported input is pinned; the unique assignment fails the
    // concrete check, so the constraint set is unsatisfiable.
    return SolveStatus::kUnsat;
  }
  if (splits_used_ >= budget_) return SolveStatus::kBudget;
  ++splits_used_;

  const Domain& d = doms[widest];
  const u64 mid = d.lo + (d.hi - d.lo) / 2;
  Domain left = Domain::range(d.lo, mid);
  Domain right = Domain::range(mid + 1, d.hi);
  // Search the half holding the preferred (or current) pick first.
  const InputId in = arena_.node(widest).input;
  const u64 cur = assign[in];
  const bool left_first = cur <= mid;

  SolveStatus first_status, second_status;
  splits.push_back({widest, left_first ? left : right});
  first_status = search(splits, goal, out);
  splits.pop_back();
  if (first_status == SolveStatus::kSat) return SolveStatus::kSat;

  splits.push_back({widest, left_first ? right : left});
  second_status = search(splits, goal, out);
  splits.pop_back();
  if (second_status == SolveStatus::kSat) return SolveStatus::kSat;

  if (first_status == SolveStatus::kBudget ||
      second_status == SolveStatus::kBudget)
    return SolveStatus::kBudget;
  return SolveStatus::kUnsat;
}

SolveResult Solver::solve(const GoalCheck& goal) {
  SolveResult out;
  std::vector<Split> splits;
  out.status = search(splits, goal, out);
  out.splits_used = splits_used_;
  return out;
}

}  // namespace ptstore::analysis::symexec
