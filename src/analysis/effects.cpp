#include "analysis/effects.h"

#include "isa/csr.h"

namespace ptstore::analysis {

using isa::Op;

RegIntervals entry_intervals() {
  RegIntervals regs;
  regs.fill(Domain::top());
  regs[0] = Domain::exact(0);
  return regs;
}

bool join_intervals(RegIntervals& dst, const RegIntervals& src) {
  bool changed = false;
  for (unsigned r = 1; r < 32; ++r) {
    const Domain j = dst[r].join(src[r]);
    if (j != dst[r]) {
      dst[r] = j;
      changed = true;
    }
  }
  return changed;
}

void interval_step(u64 pc, const isa::Inst& in, RegIntervals& regs) {
  if (in.rd == 0) return;  // Stores, branches and x0 writes change nothing.
  const Domain& a = regs[in.rs1];
  const Domain& b = regs[in.rs2];
  const Domain imm = Domain::exact(static_cast<u64>(in.imm));
  Domain& rd = regs[in.rd];
  switch (in.op) {
    case Op::kLui: rd = imm; return;
    case Op::kAuipc: rd = Domain::exact(pc + static_cast<u64>(in.imm)); return;
    case Op::kJal:
    case Op::kJalr: rd = Domain::exact(pc + 4); return;  // The link register.
    case Op::kAddi: rd = Domain::add(a, imm); return;
    case Op::kAddiw: rd = Domain::sext_w(Domain::add(a, imm)); return;
    case Op::kAndi: rd = Domain::bit_and(a, imm); return;
    case Op::kOri: rd = Domain::bit_or(a, imm); return;
    case Op::kXori: rd = Domain::bit_xor(a, imm); return;
    case Op::kSlli: rd = Domain::shl(a, imm); return;
    case Op::kSrli: rd = Domain::shrl(a, imm); return;
    case Op::kSrai: rd = Domain::shra(a, imm); return;
    case Op::kAdd: rd = Domain::add(a, b); return;
    case Op::kSub: rd = Domain::sub(a, b); return;
    case Op::kAddw: rd = Domain::sext_w(Domain::add(a, b)); return;
    case Op::kSubw: rd = Domain::sext_w(Domain::sub(a, b)); return;
    case Op::kAnd: rd = Domain::bit_and(a, b); return;
    case Op::kOr: rd = Domain::bit_or(a, b); return;
    case Op::kXor: rd = Domain::bit_xor(a, b); return;
    default:
      // Loads (incl. ld.pt), AMOs, CSR reads, mul/div, compares and word
      // shifts soundly degrade to Top.
      rd = Domain::top();
      return;
  }
}

Access classify_access(const isa::Inst& in, const RegIntervals& regs) {
  Access acc;
  if (in.is_amo()) {
    acc.load = acc.store = true;
    acc.addr = regs[in.rs1];  // AMOs take no offset.
    acc.value_reg = in.rs2;
    return acc;
  }
  acc.load = in.is_load();
  acc.store = in.is_store();
  if (!acc.any()) return acc;
  acc.pt = in.is_pt_access();
  acc.addr = Domain::add(regs[in.rs1], Domain::exact(static_cast<u64>(in.imm)));
  if (acc.store) acc.value_reg = in.rs2;
  return acc;
}

bool writes_csr(const isa::Inst& in) {
  switch (in.op) {
    case Op::kCsrrw:
    case Op::kCsrrwi:
      return true;
    case Op::kCsrrs:
    case Op::kCsrrc:
    case Op::kCsrrsi:  // rs1 field holds the uimm for the immediate forms.
    case Op::kCsrrci:
      return in.rs1 != 0;
    default:
      return false;
  }
}

bool is_pmp_csr(u32 csr) {
  return (csr >= isa::csr::kPmpcfg0 && csr <= isa::csr::kPmpcfg0 + 3) ||
         (csr >= isa::csr::kPmpaddr0 && csr <= isa::csr::kPmpaddr0 + 15);
}

}  // namespace ptstore::analysis
