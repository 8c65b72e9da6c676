#include "analysis/absval.h"

#include <sstream>

#include "isa/inst.h"

namespace ptstore::analysis {

std::string AbsVal::describe() const {
  std::ostringstream os;
  if (is_top()) {
    os << "[top]";
  } else if (is_exact()) {
    os << "0x" << std::hex << lo;
  } else {
    os << "[0x" << std::hex << lo << ", 0x" << hi << "]";
  }
  return os.str();
}

RegIntervals entry_intervals() {
  RegIntervals regs;
  regs.fill(AbsVal::top());
  regs[0] = AbsVal::exact(0);
  return regs;
}

bool join_intervals(RegIntervals& dst, const RegIntervals& src) {
  bool changed = false;
  for (unsigned r = 1; r < 32; ++r) {
    const AbsVal j = dst[r].join(src[r]);
    if (j != dst[r]) {
      dst[r] = j;
      changed = true;
    }
  }
  return changed;
}

void interval_step(u64 pc, const isa::Inst& in, RegIntervals& regs) {
  using isa::Op;
  const auto set = [&regs](u8 rd, AbsVal v) {
    if (rd != 0) regs[rd] = v;
  };
  const AbsVal a = regs[in.rs1];
  const AbsVal b = regs[in.rs2];
  switch (in.op) {
    case Op::kLui:
      set(in.rd, AbsVal::exact(static_cast<u64>(in.imm)));
      return;
    case Op::kAuipc:
      set(in.rd, AbsVal::exact(pc + static_cast<u64>(in.imm)));
      return;
    case Op::kJal:
    case Op::kJalr:
      set(in.rd, AbsVal::exact(pc + 4));  // The link register.
      return;
    case Op::kAddi:
      set(in.rd, AbsVal::add_imm(a, in.imm));
      return;
    case Op::kAddiw:
      set(in.rd, AbsVal::sext_w(AbsVal::add_imm(a, in.imm)));
      return;
    case Op::kAndi:
      set(in.rd, AbsVal::and_imm(a, in.imm));
      return;
    case Op::kOri:
      set(in.rd, a.is_exact() ? AbsVal::exact(a.lo | static_cast<u64>(in.imm))
                              : AbsVal::top());
      return;
    case Op::kXori:
      set(in.rd, a.is_exact() ? AbsVal::exact(a.lo ^ static_cast<u64>(in.imm))
                              : AbsVal::top());
      return;
    case Op::kSlli:
      set(in.rd, AbsVal::shl(a, static_cast<unsigned>(in.imm)));
      return;
    case Op::kSrli:
      set(in.rd, AbsVal::shr(a, static_cast<unsigned>(in.imm)));
      return;
    case Op::kSrai:
      set(in.rd, a.is_exact()
                     ? AbsVal::exact(static_cast<u64>(static_cast<i64>(a.lo) >>
                                                      (in.imm & 63)))
                     : AbsVal::top());
      return;
    case Op::kAdd:
      set(in.rd, AbsVal::add(a, b));
      return;
    case Op::kSub:
      set(in.rd, AbsVal::sub(a, b));
      return;
    case Op::kAddw:
      set(in.rd, AbsVal::sext_w(AbsVal::add(a, b)));
      return;
    case Op::kSubw:
      set(in.rd, AbsVal::sext_w(AbsVal::sub(a, b)));
      return;
    case Op::kAnd:
      set(in.rd, b.is_exact()
                     ? AbsVal::and_imm(a, static_cast<i64>(b.lo))
                     : (a.is_exact() ? AbsVal::and_imm(b, static_cast<i64>(a.lo))
                                     : AbsVal::top()));
      return;
    case Op::kOr:
    case Op::kXor:
      set(in.rd, (a.is_exact() && b.is_exact())
                     ? AbsVal::exact(in.op == Op::kOr ? (a.lo | b.lo)
                                                      : (a.lo ^ b.lo))
                     : AbsVal::top());
      return;
    default:
      // Stores and branches write no register (rd is 0 in those formats);
      // everything else — loads (incl. ld.pt), AMOs, CSR reads, mul/div,
      // compares, word shifts — soundly degrades to Top.
      set(in.rd, AbsVal::top());
      return;
  }
}

}  // namespace ptstore::analysis
