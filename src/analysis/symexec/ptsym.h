// ptsym driver: turn ptlint/ptflow violation diagnostics into one of three
// verdicts per diagnostic, by bounded symbolic execution over the image's
// CFG (analysis/symexec/path.h):
//
//   WITNESSED            — a SAT path to the flagged pc was found and
//                          materialised into a WitnessTrace; the caller must
//                          still replay it on the concrete System (see
//                          harness/witness_replay.h) before printing the
//                          verdict.
//   BOUNDED-UNREACHABLE  — every path from every analysis root was explored
//                          to completion (no budget cut, no unresolved
//                          indirect jump, no irreplayable havoc) and none
//                          satisfies the goal. A sound unreachability claim
//                          *within the executor's memory model*.
//   UNKNOWN              — anything was truncated. No claim either way.
//
// Roots: the image base, the config's extra roots, and every symbol — a
// witness from any root counts; unreachability must hold from all of them.
#pragma once

#include <vector>

#include "analysis/ptflow.h"
#include "analysis/ptlint.h"
#include "analysis/symexec/path.h"
#include "analysis/symexec/witness.h"

namespace ptstore::analysis::symexec {

/// Refine every violation-severity diagnostic of a ptlint report. The
/// returned vector is parallel to rep.violations() order.
std::vector<SymVerdict> symexec_lint(const Image& img, const LintReport& rep,
                                     const LintConfig& cfg,
                                     const WitnessBudget& budget = {});

/// Refine every violation-severity diagnostic of a ptflow report.
std::vector<SymVerdict> symexec_flow(const Image& img, const FlowReport& rep,
                                     const FlowSpec& spec,
                                     const WitnessBudget& budget = {});

}  // namespace ptstore::analysis::symexec
