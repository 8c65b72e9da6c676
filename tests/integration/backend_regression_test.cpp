// The refactor gate, kept as a permanent regression: the PtstoreBackend
// re-homing of the kernel's PMP+token implementation must be invisible in
// the campaign engine's schema-v1 reports. These goldens were generated by
// `ptcampaign {proto,attack} --shards 8 --ops 64 --jobs 2 --json` on the
// pre-refactor tree; any divergence — an extra simulated access, a counter
// rename, a status relabel — breaks byte identity here.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/campaign.h"

namespace ptstore::harness {
namespace {

std::string read_golden(const std::string& file) {
  const std::string path = std::string(PTSTORE_GOLDEN_DIR) + "/" + file;
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "missing golden " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

CampaignSpec seed_spec(CampaignKind kind) {
  CampaignSpec spec;  // ptcampaign defaults: seed 1, 128 MiB, 20 prep procs.
  spec.kind = kind;
  spec.shards = 8;
  spec.ops_per_shard = 64;
  spec.jobs = 2;
  return spec;
}

TEST(BackendRegression, ProtoCampaignReportByteIdenticalToSeed) {
  const CampaignResult r = run_campaign(seed_spec(CampaignKind::kProto));
  EXPECT_EQ(campaign_report_json(r, /*include_timing=*/false),
            read_golden("campaign_proto_seed.json"));
}

TEST(BackendRegression, AttackCampaignReportByteIdenticalToSeed) {
  const CampaignResult r = run_campaign(seed_spec(CampaignKind::kAttack));
  EXPECT_EQ(campaign_report_json(r, /*include_timing=*/false),
            read_golden("campaign_attack_seed.json"));
}

// The seed reports above never fail, so they pin no breach label, minimized
// reproducer or hart dispatch. These three do, from the same CLI shape:
// `ptcampaign smp [--skip-ipi]` (2 harts) and `ptcampaign attack --stock`.
TEST(BackendRegression, SmpCampaignReportByteIdenticalToSeed) {
  CampaignSpec spec = seed_spec(CampaignKind::kSmp);
  spec.nharts = 2;
  const CampaignResult r = run_campaign(spec);
  EXPECT_EQ(campaign_report_json(r, /*include_timing=*/false),
            read_golden("campaign_smp_seed.json"));
}

TEST(BackendRegression, SmpSkipIpiCampaignReportByteIdenticalToSeed) {
  CampaignSpec spec = seed_spec(CampaignKind::kSmp);
  spec.nharts = 2;
  spec.sabotage_skip_ipi = true;
  const CampaignResult r = run_campaign(spec);
  EXPECT_EQ(campaign_report_json(r, /*include_timing=*/false),
            read_golden("campaign_smp_skip_ipi_seed.json"));
}

TEST(BackendRegression, StockAttackCampaignReportByteIdenticalToSeed) {
  CampaignSpec spec = seed_spec(CampaignKind::kAttack);
  spec.ptstore = false;
  const CampaignResult r = run_campaign(spec);
  EXPECT_EQ(campaign_report_json(r, /*include_timing=*/false),
            read_golden("campaign_attack_stock_seed.json"));
}

TEST(BackendRegression, ExplicitBackendSelectionIsLabeled) {
  CampaignSpec spec = seed_spec(CampaignKind::kProto);
  spec.shards = 2;
  spec.ops_per_shard = 8;
  spec.backend = BackendKind::kDpti;
  const CampaignResult r = run_campaign(spec);
  const std::string json = campaign_report_json(r, /*include_timing=*/false);
  EXPECT_NE(json.find("\"backend\":\"dpti\""), std::string::npos) << json;
  EXPECT_EQ(r.failures, 0u) << "proto campaign must stay clean under dpti";
}

TEST(BackendRegression, ProtoCampaignCleanOnEveryBackend) {
  for (const BackendKind k : {BackendKind::kStock, BackendKind::kPtauth}) {
    CampaignSpec spec = seed_spec(CampaignKind::kProto);
    spec.shards = 2;
    spec.ops_per_shard = 16;
    spec.backend = k;
    const CampaignResult r = run_campaign(spec);
    EXPECT_EQ(r.failures, 0u) << "backend " << to_string(k);
  }
}

// ---- SMP extension gates ----------------------------------------------------

CampaignSpec smp_spec() {
  CampaignSpec spec = seed_spec(CampaignKind::kSmp);
  spec.shards = 6;
  spec.ops_per_shard = 32;
  spec.nharts = 2;
  return spec;
}

// A healthy 2-hart kernel keeps every remote TLB coherent: the race probes
// must all come back "blocked", and the report must be a pure function of
// (kind, seed, shards, ops) — byte-identical across --jobs — exactly like
// the single-hart campaigns.
TEST(BackendRegression, SmpCampaignCleanAndJobsInvariant) {
  CampaignSpec a = smp_spec();
  a.jobs = 1;
  CampaignSpec b = smp_spec();
  b.jobs = 4;
  const CampaignResult ra = run_campaign(a);
  const CampaignResult rb = run_campaign(b);
  EXPECT_EQ(ra.failures, 0u) << "stale-TLB breach with shootdown IPIs enabled";
  const std::string ja = campaign_report_json(ra, /*include_timing=*/false);
  EXPECT_EQ(ja, campaign_report_json(rb, /*include_timing=*/false));
  EXPECT_NE(ja.find("\"nharts\":2"), std::string::npos) << ja;
}

// Dropping the IPI leg must breach reproducibly: the minimized traces replay
// op-for-op (same harts, same interleaving) on a fresh fork of the same
// checkpoint, and re-enabling IPIs on an otherwise identical spec is clean.
TEST(BackendRegression, SmpSkipIpiBreachesAndReproduces) {
  CampaignSpec spec = smp_spec();
  spec.sabotage_skip_ipi = true;
  const CampaignResult r = run_campaign(spec);
  ASSERT_GT(r.failures, 0u) << "IPI sabotage produced no stale-TLB breach";
  const SystemCheckpoint ck = campaign_checkpoint(spec);
  for (const ShardOutcome& s : r.shards) {
    if (!s.failed) continue;
    ASSERT_FALSE(s.repro.empty()) << "failing shard lost its reproducer";
    std::string why;
    EXPECT_TRUE(replay_trace_fails(ck, spec.kind, s.repro, &why))
        << "shard " << s.shard << " reproducer does not replay";
  }
}

}  // namespace
}  // namespace ptstore::harness
