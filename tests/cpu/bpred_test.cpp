// Branch predictor model: counter learning, history, BTB behaviour, and
// accuracy on structured patterns.
#include "cpu/branch_predictor.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace ptstore {
namespace {

BranchPredictorConfig cfg() { return BranchPredictorConfig{}; }

TEST(Bpred, LearnsAlwaysTaken) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  const u64 pc = 0x8000'0100;
  // Cold: weakly-not-taken mispredicts a taken branch.
  EXPECT_GT(bp.resolve_branch(pc, true), 0u);
  // gshare mixes history into the index, so warm-up touches one counter per
  // distinct history pattern; after history saturates it is stable.
  for (int i = 0; i < 10; ++i) bp.resolve_branch(pc, true);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(bp.resolve_branch(pc, true), 0u) << i;
  }
}

TEST(Bpred, LearnsAlwaysNotTaken) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  const u64 pc = 0x8000'0200;
  for (int i = 0; i < 20; ++i) bp.resolve_branch(pc, false);
  EXPECT_EQ(bp.resolve_branch(pc, false), 0u);
  EXPECT_GT(bp.accuracy(), 0.9);
}

TEST(Bpred, AnomalyRecoveryIsBounded) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  const u64 pc = 0x8000'0300;
  for (int i = 0; i < 50; ++i) bp.resolve_branch(pc, true);  // Saturated taken.
  bp.resolve_branch(pc, false);  // One anomaly perturbs the history.
  // Recovery may touch up to history_bits cold counters, but no more.
  u64 penalty = 0;
  for (int i = 0; i < 20; ++i) penalty += bp.resolve_branch(pc, true);
  EXPECT_LE(penalty, (cfg().history_bits + 1) * cfg().mispredict_penalty);
}

TEST(Bpred, LoopPatternConvergesWithEnoughHistory) {
  // An 8-iteration loop (TTTTTTTN repeating) needs >7 history bits to
  // disambiguate the exit iteration; with 10 bits it converges fully.
  BranchPredictorConfig long_hist = cfg();
  long_hist.history_bits = 10;
  telemetry::CounterBank bank;
  BranchPredictor bp(long_hist, bank);
  const u64 pc = 0x8000'0400;
  for (int warm = 0; warm < 100; ++warm) {
    for (int i = 0; i < 8; ++i) bp.resolve_branch(pc, i != 7);
  }
  u64 penalty = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < 8; ++i) penalty += bp.resolve_branch(pc, i != 7);
  }
  EXPECT_LT(penalty, 20u * long_hist.mispredict_penalty);  // <1 miss / 8 iters.

  // With too little history the same pattern aliases and keeps missing.
  BranchPredictorConfig short_hist = cfg();
  short_hist.history_bits = 2;
  telemetry::CounterBank bank2;
  BranchPredictor bp2(short_hist, bank2);
  u64 penalty2 = 0;
  for (int warm = 0; warm < 100; ++warm) {
    for (int i = 0; i < 8; ++i) bp2.resolve_branch(pc, i != 7);
  }
  for (int rep = 0; rep < 20; ++rep) {
    for (int i = 0; i < 8; ++i) penalty2 += bp2.resolve_branch(pc, i != 7);
  }
  EXPECT_GT(penalty2, penalty);
}

TEST(Bpred, BtbRepeatJumpsFree) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  EXPECT_GT(bp.resolve_jump(0x8000'0000, 0x8000'2000), 0u);  // Cold.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(bp.resolve_jump(0x8000'0000, 0x8000'2000), 0u);
  }
}

TEST(Bpred, BtbTargetChangeRepays) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  bp.resolve_jump(0x8000'0000, 0x8000'2000);
  EXPECT_EQ(bp.resolve_jump(0x8000'0000, 0x8000'2000), 0u);
  // Indirect jump switches target (e.g. function pointer): penalty again.
  EXPECT_GT(bp.resolve_jump(0x8000'0000, 0x8000'4000), 0u);
  EXPECT_EQ(bp.resolve_jump(0x8000'0000, 0x8000'4000), 0u);
}

TEST(Bpred, BtbAliasingEvicts) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  const u64 stride = u64{1} << 7;  // 64-entry BTB indexed by pc>>1.
  bp.resolve_jump(0x8000'0000, 1);
  bp.resolve_jump(0x8000'0000 + 64 * stride, 2);  // Same index, different pc.
  EXPECT_GT(bp.resolve_jump(0x8000'0000, 1), 0u);  // Evicted.
}

TEST(Bpred, RandomOutcomesRoughlyHalfAccuracy) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  Rng rng(5);
  for (int i = 0; i < 4000; ++i) {
    bp.resolve_branch(0x8000'0000 + (rng.next_below(32) << 2), rng.chance(0.5));
  }
  EXPECT_GT(bp.accuracy(), 0.3);
  EXPECT_LT(bp.accuracy(), 0.7);
}

TEST(Bpred, StatsAccumulate) {
  telemetry::CounterBank bank;
  BranchPredictor bp(cfg(), bank);
  for (int i = 0; i < 10; ++i) bp.resolve_branch(0x100, true);
  EXPECT_EQ(bank.value_of("bp.hits") + bank.value_of("bp.misses"), 10u);
}

}  // namespace
}  // namespace ptstore
