#include "analysis/taint.h"

#include <sstream>

#include "analysis/effects.h"

namespace ptstore::analysis {

const char* taint_class_name(TaintSet bit) {
  switch (bit) {
    case kTaintToken: return "token";
    case kTaintMacKey: return "mac-key";
    case kTaintCredential: return "credential";
    case kTaintDomainRoot: return "domain-root";
    default: return "?";
  }
}

std::string describe_taint(TaintSet t) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (unsigned b = 0; b < 8; ++b) {
    const TaintSet bit = static_cast<TaintSet>(1u << b);
    if ((t & bit) == 0) continue;
    os << (first ? "" : ", ") << taint_class_name(bit);
    first = false;
  }
  for (unsigned i = 0; i < 8; ++i) {
    if ((t & taint_arg(i)) == 0) continue;
    os << (first ? "" : ", ") << "arg" << i;
    first = false;
  }
  os << "}";
  return os.str();
}

FlowState FlowState::entry(bool symbolic_args) {
  FlowState st;
  st.reached = true;
  st.regs = entry_intervals();
  if (symbolic_args) {
    for (unsigned i = 0; i < 8; ++i) st.taint[10 + i] = taint_arg(i);
  }
  return st;
}

bool FlowState::join_from(const FlowState& o) {
  if (!o.reached) return false;
  if (!reached) {
    *this = o;
    return true;
  }
  bool changed = join_intervals(regs, o.regs);
  for (unsigned r = 1; r < 32; ++r) {
    const TaintSet t = static_cast<TaintSet>(taint[r] | o.taint[r]);
    if (t != taint[r]) {
      taint[r] = t;
      changed = true;
    }
  }
  if (mediated && !o.mediated) {
    mediated = false;
    changed = true;
  }
  if (cred_written && !o.cred_written) {
    cred_written = false;
    changed = true;
  }
  return changed;
}

void FlowState::clobber_caller_saved() {
  analysis::clobber_caller_saved(regs);
  for (const u8 r : kCallerSaved) taint[r] = 0;
}

TaintSet taint_after(const isa::Inst& in, const std::array<TaintSet, 32>& taint) {
  using isa::Op;
  switch (in.op) {
    case Op::kLui:
    case Op::kAuipc:
      return 0;  // Constants are clean, ending any li-chain taint.
    case Op::kAddi:
    case Op::kAddiw:
    case Op::kAndi:
    case Op::kOri:
    case Op::kXori:
    case Op::kSlli:
    case Op::kSrli:
    case Op::kSrai:
    case Op::kSlliw:
    case Op::kSrliw:
    case Op::kSraiw:
    case Op::kSlti:
    case Op::kSltiu:
      return taint[in.rs1];
    case Op::kAdd:
    case Op::kSub:
    case Op::kAddw:
    case Op::kSubw:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
    case Op::kSll:
    case Op::kSrl:
    case Op::kSra:
    case Op::kSllw:
    case Op::kSrlw:
    case Op::kSraw:
    case Op::kSlt:
    case Op::kSltu:
    case Op::kMul:
    case Op::kMulh:
    case Op::kMulhsu:
    case Op::kMulhu:
    case Op::kDiv:
    case Op::kDivu:
    case Op::kRem:
    case Op::kRemu:
    case Op::kMulw:
    case Op::kDivw:
    case Op::kDivuw:
    case Op::kRemw:
    case Op::kRemuw:
      // Any arithmetic mixing of a secret keeps it secret (a MAC computed
      // from the key is still key-derived).
      return static_cast<TaintSet>(taint[in.rs1] | taint[in.rs2]);
    default:
      // Loads (the verifier re-taints from secret ranges), CSR reads,
      // AMO results, jumps: clean at this layer.
      return 0;
  }
}

void FlowState::step(u64 pc, const isa::Inst& in) {
  const TaintSet t = taint_after(in, taint);
  interval_step(pc, in, regs);
  if (in.rd != 0 && !in.is_store() && !in.is_branch()) taint[in.rd] = t;
}

}  // namespace ptstore::analysis
