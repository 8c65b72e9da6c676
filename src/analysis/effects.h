// The instruction-effects table shared by ptlint, ptflow and the call-graph
// resolver: what one decoded instruction does to memory, CSRs and the
// caller's registers, as seen by the interval domain. The register transfer
// itself (including the jal/jalr link write) is interval_step in
// analysis/absval.h; everything the three clients need beyond it lives here,
// once.
#pragma once

#include "analysis/absval.h"
#include "isa/inst.h"

namespace ptstore::analysis {

/// One memory access: loads and ld.pt read, stores and sd.pt write, AMOs
/// (incl. lr/sc) do both.
struct Access {
  bool load = false;
  bool store = false;
  bool pt = false;    ///< ld.pt / sd.pt.
  AbsVal addr;        ///< Effective-address interval.
  u8 value_reg = 0;   ///< Register holding the stored value (x0 if none).

  bool any() const { return load || store; }
};

/// Classify `in` against the pre-instruction register intervals; `any()` is
/// false for instructions that touch no memory.
Access classify_access(const isa::Inst& in, const RegIntervals& regs);

/// True when a Zicsr instruction writes its CSR (csrrs/csrrc and their
/// immediate forms only write for a non-zero rs1/uimm).
bool writes_csr(const isa::Inst& in);
/// The CSR number a Zicsr instruction names.
inline u32 csr_of(const isa::Inst& in) { return static_cast<u32>(in.imm) & 0xFFF; }
/// pmpcfg0..3 / pmpaddr0..15: owned by the M-mode monitor.
bool is_pmp_csr(u32 csr);

/// `jalr x0, 0(ra)`: the conventional return.
inline bool is_return(const isa::Inst& in) {
  return in.op == isa::Op::kJalr && in.rd == 0 && in.rs1 == 1;
}

/// The RISC-V caller-saved set (ra, t0-t6, a0-a7): what any callee may
/// clobber across a call-return edge.
inline constexpr u8 kCallerSaved[] = {1,  5,  6,  7,  10, 11, 12, 13,
                                      14, 15, 16, 17, 28, 29, 30, 31};

/// Havoc the caller-saved registers to Top (the call-return edge effect).
inline void clobber_caller_saved(RegIntervals& regs) {
  for (const u8 r : kCallerSaved) regs[r] = AbsVal::top();
}

}  // namespace ptstore::analysis
