// Campaign engine: jobs-invariant deterministic reports, boot-skip via
// checkpoint forking, and the reproducer/minimization machinery exercised
// on the stock kernel, where the paper's §III-A attacks genuinely succeed.
#include <gtest/gtest.h>

#include "harness/campaign.h"

namespace ptstore::harness {
namespace {

CampaignSpec small_spec(CampaignKind kind) {
  CampaignSpec spec;
  spec.kind = kind;
  spec.shards = 6;
  spec.ops_per_shard = 40;
  spec.diff.op_count = 120;
  return spec;
}

TEST(Campaign, ReportIsByteIdenticalAcrossJobs) {
  for (const CampaignKind kind :
       {CampaignKind::kProto, CampaignKind::kDiff, CampaignKind::kAttack}) {
    CampaignSpec spec = small_spec(kind);
    spec.jobs = 1;
    const std::string inline_report = campaign_report_json(run_campaign(spec), false);
    spec.jobs = 8;
    const std::string pooled_report = campaign_report_json(run_campaign(spec), false);
    EXPECT_EQ(inline_report, pooled_report) << to_string(kind);
  }
}

TEST(Campaign, ProtoCampaignOnPtstoreKernelIsClean) {
  const CampaignResult r = run_campaign(small_spec(CampaignKind::kProto));
  EXPECT_EQ(r.failures, 0u);
  for (const ShardOutcome& s : r.shards) {
    EXPECT_FALSE(s.failed) << s.failure;
    EXPECT_EQ(s.ops_executed, 40u);
    EXPECT_TRUE(s.repro.empty());
  }
}

TEST(Campaign, AttackCampaignOnPtstoreKernelIsClean) {
  const CampaignResult r = run_campaign(small_spec(CampaignKind::kAttack));
  EXPECT_EQ(r.failures, 0u) << campaign_report_json(r, false);
  // The generator must actually have thrown attacker primitives at the
  // machine — all blocked, none breaching.
  u64 blocked = 0;
  for (const ShardOutcome& s : r.shards) {
    for (const auto& [key, count] : s.status_counts) {
      if (key.find(":blocked") != std::string::npos) blocked += count;
      EXPECT_EQ(key.find("breach"), std::string::npos) << key;
    }
  }
  EXPECT_GT(blocked, 0u);
}

TEST(Campaign, ShardsForkInsteadOfBooting) {
  const CampaignResult r = run_campaign(small_spec(CampaignKind::kProto));
  // Aggregate over N shards: N checkpoint restores, zero kernel boots —
  // the telemetry proof that forking skipped every per-shard boot.
  EXPECT_EQ(r.aggregate.get("kernel.checkpoint_restores"), r.spec.shards);
  EXPECT_EQ(r.aggregate.get("kernel.booted"), 0u);
}

TEST(Campaign, StockKernelAttackCampaignBreaches) {
  CampaignSpec spec = small_spec(CampaignKind::kAttack);
  spec.ptstore = false;
  const CampaignResult r = run_campaign(spec);
  EXPECT_GT(r.failures, 0u)
      << "attacks must succeed on the stock kernel (the paper's motivation)";
  for (const ShardOutcome& s : r.shards) {
    if (!s.failed) continue;
    EXPECT_FALSE(s.repro.empty());
    EXPECT_NE(s.failure.find("breach"), std::string::npos) << s.failure;
  }
}

TEST(Campaign, MinimizedReproducerReplaysDeterministically) {
  CampaignSpec spec = small_spec(CampaignKind::kAttack);
  spec.ptstore = false;
  const CampaignResult r = run_campaign(spec);
  ASSERT_GT(r.failures, 0u);
  const SystemCheckpoint ck = campaign_checkpoint(spec);

  for (const ShardOutcome& s : r.shards) {
    if (!s.failed) continue;
    // Minimization is greedy one-at-a-time removal, so the surviving trace
    // is 1-minimal: it fails as-is, and every single-op removal passes.
    std::string why1, why2;
    EXPECT_TRUE(replay_trace_fails(ck, spec.kind, s.repro, &why1));
    EXPECT_TRUE(replay_trace_fails(ck, spec.kind, s.repro, &why2));
    EXPECT_EQ(why1, why2) << "replay diagnosis must be deterministic";
    for (size_t drop = 0; drop < s.repro.size(); ++drop) {
      std::vector<CampaignOp> smaller = s.repro;
      smaller.erase(smaller.begin() + static_cast<std::ptrdiff_t>(drop));
      EXPECT_FALSE(replay_trace_fails(ck, spec.kind, smaller))
          << "repro not 1-minimal: op " << drop << " is removable";
    }
  }
}

TEST(Campaign, MinimizeKeepsHealthyTraceIntact) {
  const CampaignSpec spec = small_spec(CampaignKind::kProto);
  const SystemCheckpoint ck = campaign_checkpoint(spec);
  // A benign trace never fails, so minimization has nothing to chew on.
  const std::vector<CampaignOp> benign = {
      {CampaignOp::Kind::kSwitchMm, 1, 0},
      {CampaignOp::Kind::kGrow, 0, 1},
  };
  EXPECT_FALSE(replay_trace_fails(ck, spec.kind, benign));
  EXPECT_EQ(minimize_trace(ck, spec.kind, benign).size(), benign.size());
}

TEST(Campaign, OpsReferencingDeadPidsDegradeBenignly) {
  const CampaignSpec spec = small_spec(CampaignKind::kProto);
  const SystemCheckpoint ck = campaign_checkpoint(spec);
  auto sys = System::create_from(ck);
  ASSERT_TRUE(sys.ok());
  const CampaignOp orphan{CampaignOp::Kind::kCopyMm, 999'999, 0};
  const OpResult r = exec_campaign_op(*sys.value(), orphan);
  EXPECT_EQ(r.status, "no-proc");
  EXPECT_TRUE(r.skipped);
  EXPECT_FALSE(replay_trace_fails(ck, spec.kind, {orphan}));
}

TEST(Campaign, ReportCarriesSchemaAndSpecFields) {
  CampaignSpec spec = small_spec(CampaignKind::kProto);
  spec.seed = 77;
  const std::string json = campaign_report_json(run_campaign(spec), false);
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"campaign\":\"proto\""), std::string::npos);
  EXPECT_NE(json.find("\"campaign_seed\":77"), std::string::npos);
  EXPECT_NE(json.find("\"shard_count\":6"), std::string::npos);
  EXPECT_NE(json.find("\"aggregate_counters\""), std::string::npos);
  // Timing (and the jobs count) only appear when explicitly requested —
  // they are the only fields that vary run to run.
  EXPECT_EQ(json.find("\"timing\""), std::string::npos);
  EXPECT_EQ(json.find("wall_seconds"), std::string::npos);
  const std::string timed = campaign_report_json(run_campaign(spec), true);
  EXPECT_NE(timed.find("\"timing\""), std::string::npos);
  EXPECT_NE(timed.find("\"boot_amortization\""), std::string::npos);
}

}  // namespace
}  // namespace ptstore::harness
