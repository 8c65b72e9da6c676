// The §V-E battery as op traces: every scenario runs its stores, protocol
// ops and probes as CampaignOps through exec_campaign_op, so each report
// carries the executed ops as ptcampaign reproducer lines, and outcomes
// come from the typed OpResult. The per-scenario outcomes themselves are
// pinned by tests/harness/scenarios_test.cpp and the battery goldens.
#include "harness/battery.h"

#include <gtest/gtest.h>

#include "harness/support.h"

namespace ptstore::harness {
namespace {

using attacks::Outcome;

TEST(Battery, EveryReportLogsItsOpsAsReproducerLines) {
  for (const SystemConfig& cfg :
       {SystemConfig::cfi_ptstore(), SystemConfig::baseline()}) {
    for (const attacks::AttackReport& rep : attacks::run_all(cfg)) {
      SCOPED_TRACE(rep.name);
      ASSERT_FALSE(rep.log.empty());
      for (const std::string& line : rep.log) {
        EXPECT_NE(line.find(" pid="), std::string::npos) << line;
        EXPECT_NE(line.find(" -> "), std::string::npos) << line;
      }
    }
  }
}

TEST(Battery, DefendedTraceEndsAtTheRefusedOp) {
  System sys(SystemConfig::cfi_ptstore());
  const attacks::AttackReport tamper = attacks::pt_tampering(sys);
  ASSERT_EQ(tamper.log.size(), 1u);
  EXPECT_EQ(tamper.log[0].rfind("rw_write_leaf", 0), 0u) << tamper.log[0];
  EXPECT_NE(tamper.log[0].find("-> blocked"), std::string::npos)
      << tamper.log[0];

  System sys2(SystemConfig::cfi_ptstore());
  const attacks::AttackReport tlb = attacks::tlb_inconsistency(sys2);
  ASSERT_EQ(tlb.log.size(), 2u);
  EXPECT_EQ(tlb.log[0].rfind("stale_tlb", 0), 0u) << tlb.log[0];
  EXPECT_EQ(tlb.log[1].rfind("user_probe", 0), 0u) << tlb.log[1];
}

TEST(Battery, OutcomeOfNamesTheCheckThatFired) {
  const auto of = [](ProtoStatus s, bool ok) {
    OpResult r;
    r.ok = ok;
    r.proto = s;
    return outcome_of(r);
  };
  EXPECT_EQ(of(ProtoStatus::kTokenReject, false), Outcome::kDetectedToken);
  EXPECT_EQ(of(ProtoStatus::kMacReject, false), Outcome::kDetectedMac);
  EXPECT_EQ(of(ProtoStatus::kDomainReject, false), Outcome::kDetectedDomain);
  EXPECT_EQ(of(ProtoStatus::kZeroDetect, false), Outcome::kDetectedZero);
  EXPECT_EQ(of(ProtoStatus::kFault, false), Outcome::kBlockedFault);
  // A primitive that faulted, and one that completed.
  EXPECT_EQ(of(ProtoStatus::kOk, false), Outcome::kBlockedFault);
  EXPECT_EQ(of(ProtoStatus::kOk, true), Outcome::kSucceeded);
}

// VM-metadata's page-table store is an rw_write_leaf: a subject without a
// leaf for the victim page gets a typed no-slot result, never a store.
TEST(Battery, RwWriteLeafWithoutALeafIsNoSlot) {
  System sys(SystemConfig::cfi_ptstore());
  const OpResult r = exec_campaign_op(
      sys, {CampaignOp::Kind::kRwWriteLeaf, sys.init().pid, 0});
  EXPECT_TRUE(r.skipped);
  EXPECT_EQ(r.status, "no-slot");
}

TEST(Battery, StaleTlbOpIsNamedAndNeedsItsSubject) {
  EXPECT_STREQ(to_string(CampaignOp::Kind::kStaleTlb), "stale_tlb");
  System sys(SystemConfig::cfi_ptstore());
  const OpResult r = exec_campaign_op(
      sys, {CampaignOp::Kind::kStaleTlb, /*pid=*/9999, attacks::kVictimVa});
  EXPECT_TRUE(r.skipped);
  EXPECT_EQ(r.status, "no-proc");
}

}  // namespace
}  // namespace ptstore::harness
