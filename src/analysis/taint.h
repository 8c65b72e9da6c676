// Taint lattice for ptflow's interprocedural secret-flow analysis.
//
// A TaintSet is a bitset over two kinds of bits:
//   - secret-class bits (low byte): the value may carry a backend secret —
//     a PTStore token, the PTAuth MAC key, a PCB credential, or a DPTI
//     domain-registry root. These are seeded at loads from spec-declared
//     secret source ranges and checked at stores/sinks (rules T1–T3).
//   - symbolic argument bits (high byte): "depends on the taint of incoming
//     argument register a0..a7". These appear only inside bottom-up
//     function summaries, which are computed once against symbolic
//     arguments and instantiated per call site.
//
// The may-analysis joins by union; the two mediation must-flags (M1/M2)
// join by AND, exactly like ptlint's R3 "validated" bit.
#pragma once

#include <string>

#include "analysis/absval.h"

namespace ptstore::analysis {

using TaintSet = u16;

enum : TaintSet {
  kTaintToken = 1u << 0,       ///< PTStore secure-region token value.
  kTaintMacKey = 1u << 1,      ///< PTAuth MAC key (monitor secret).
  kTaintCredential = 1u << 2,  ///< PCB credential field contents.
  kTaintDomainRoot = 1u << 3,  ///< DPTI domain-registry root entry.
};

inline constexpr TaintSet kTaintSecretMask = 0x00FF;
inline constexpr TaintSet kTaintArgMask = 0xFF00;

/// Symbolic dependence on argument register a0+i (i in [0, 8)).
constexpr TaintSet taint_arg(unsigned i) {
  return static_cast<TaintSet>(1u << (8 + i));
}

/// Name of one secret-class bit ("token", "mac-key", ...).
const char* taint_class_name(TaintSet bit);

/// Human-readable set, e.g. "{token, arg0}"; "{}" when empty.
std::string describe_taint(TaintSet t);

/// Abstract machine state at one ptflow program point: the interval per
/// register (shared with ptlint), a taint set per register, and the two
/// must-flags the M rules consume.
struct FlowState {
  RegIntervals regs;
  std::array<TaintSet, 32> taint{};
  /// A call into the backend's mediation entry dominates this point (M1).
  bool mediated = false;
  /// A store provably confined to the credential home dominates this
  /// point (M2: credential written before the root becomes walkable).
  bool cred_written = false;
  bool reached = false;

  /// Entry state: every register Top/untainted. When `symbolic_args` is
  /// set, a0..a7 carry their taint_arg() bit — the summary-computation
  /// seeding; contexts built from real call sites leave it clear.
  static FlowState entry(bool symbolic_args);

  /// Join: interval hull + taint union per register, AND on must-flags.
  bool join_from(const FlowState& o);

  /// Havoc the caller-saved registers (Top, untainted) across a call.
  void clobber_caller_saved();

  /// Apply one instruction's register effects (interval + taint; a jal/jalr
  /// link register becomes the exact, clean return address). Loads/AMO
  /// results are left Top/untainted here — the verifier re-taints rd from
  /// the spec's secret ranges, which this layer cannot know.
  void step(u64 pc, const isa::Inst& in);
};

/// Taint of the value an instruction writes to rd, from its source
/// operands: ALU/shift/move results union their register sources,
/// constants (lui/auipc/li chains) are clean, loads are clean at this
/// layer (see FlowState::step).
TaintSet taint_after(const isa::Inst& in, const std::array<TaintSet, 32>& taint);

}  // namespace ptstore::analysis
