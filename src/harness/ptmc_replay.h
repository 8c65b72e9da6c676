// Counterexample replay: drives a concrete System through the op sequence
// of a ptmc counterexample, with the same defences disabled that the model
// had disabled, and checks that the abstract violation is architecturally
// real. Replay is a lowering onto the campaign IR (harness/campaign.h):
// each model step becomes CampaignOps whose arguments come from the
// driver's bindings (model proc -> pid, model page -> physical page, bound
// lazily on first touch), all run by exec_campaign_op. The verdict is the
// violated property's witness (P1 probe, P2 satp root, P3 forged cash-in,
// P4 watched slot), not the campaign rule; the trace runner, outcome_of
// and those witnesses are shared with the attack battery
// (harness/battery.h).
//
//   * replay_counterexample — replay under the counterexample's own
//     (mutated) ModelConfig; a faithful counterexample must end in
//     Outcome::kSucceeded.
//   * replay_on_stock — replay the same ops with every defence on; the
//     stock system must stop the trace (fault / token reject / zero
//     detect), which is the other half of the matrix argument.
#pragma once

#include "analysis/ptmc.h"
#include "harness/battery.h"

namespace ptstore::harness {

/// Replay `ce` on a System configured from ce.cfg (defence mutations
/// applied). Reproducing the violation yields Outcome::kSucceeded.
attacks::AttackReport replay_counterexample(
    const analysis::ptmc::Counterexample& ce);

/// Replay `ce`'s op sequence on a fully-defended System: the report carries
/// the defence that stopped it.
attacks::AttackReport replay_on_stock(const analysis::ptmc::Counterexample& ce);

}  // namespace ptstore::harness
