#include "analysis/effects.h"

#include "isa/csr.h"

namespace ptstore::analysis {

using isa::Op;

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
  acc.addr = AbsVal::add_imm(regs[in.rs1], in.imm);
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
