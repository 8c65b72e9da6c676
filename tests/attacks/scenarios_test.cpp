// The paper's §V-E security matrix, asserted exactly: PTStore defends all
// eight scenarios of the attack battery; the unprotected baseline falls to
// all eight. Ablations confirm *which* mechanism stops each attack.
#include "harness/battery.h"

#include <gtest/gtest.h>

namespace ptstore::attacks {
namespace {

SystemConfig ptstore_cfg() {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  return cfg;
}

SystemConfig baseline_cfg() {
  SystemConfig cfg = SystemConfig::baseline();
  cfg.dram_size = MiB(256);
  return cfg;
}

// ---- PTStore defends everything ----

TEST(AttackPtStore, TamperingBlockedByPmp) {
  System sys(ptstore_cfg());
  const AttackReport r = pt_tampering(sys);
  EXPECT_EQ(r.outcome, Outcome::kBlockedFault) << r.detail;
}

TEST(AttackPtStore, KernelUBitFlipBlocked) {
  System sys(ptstore_cfg());
  const AttackReport r = pt_tampering_kernel_expose(sys);
  EXPECT_EQ(r.outcome, Outcome::kBlockedFault) << r.detail;
}

TEST(AttackBaselineExtra, KernelUBitFlipExposesKernelMemory) {
  System sys(baseline_cfg());
  EXPECT_EQ(pt_tampering_kernel_expose(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackPtStore, InjectionDetectedByToken) {
  System sys(ptstore_cfg());
  const AttackReport r = pt_injection(sys);
  EXPECT_EQ(r.outcome, Outcome::kDetectedToken) << r.detail;
}

TEST(AttackPtStore, InjectionBlockedByPtwWithoutTokens) {
  // Ablation: disable the token check — the satp.S walker check must still
  // stop the injection (defence in depth, §III-C2).
  SystemConfig cfg = ptstore_cfg();
  cfg.kernel.token_check = false;
  System sys(cfg);
  const AttackReport r = pt_injection(sys);
  EXPECT_EQ(r.outcome, Outcome::kBlockedFault) << r.detail;
}

TEST(AttackPtStore, ReuseDetectedByToken) {
  System sys(ptstore_cfg());
  const AttackReport r = pt_reuse(sys);
  EXPECT_EQ(r.outcome, Outcome::kDetectedToken) << r.detail;
}

TEST(AttackPtStore, AllocatorMetadataDetectedByZeroCheck) {
  System sys(ptstore_cfg());
  const AttackReport r = allocator_metadata(sys);
  EXPECT_EQ(r.outcome, Outcome::kDetectedZero) << r.detail;
}

TEST(AttackPtStore, TokenForgeryBlockedByPmp) {
  // The forgery's first move is a regular store into the token table, which
  // lives in the secure region: the S-bit stops it before any validation
  // logic even runs.
  System sys(ptstore_cfg());
  const AttackReport r = token_forgery(sys);
  EXPECT_EQ(r.outcome, Outcome::kBlockedFault) << r.detail;
}

TEST(AttackPtStore, VmMetadataContained) {
  System sys(ptstore_cfg());
  const AttackReport r = vm_metadata(sys);
  EXPECT_EQ(r.outcome, Outcome::kContained) << r.detail;
}

TEST(AttackPtStore, TlbInconsistencyBlockedByPhysicalCheck) {
  System sys(ptstore_cfg());
  const AttackReport r = tlb_inconsistency(sys);
  EXPECT_EQ(r.outcome, Outcome::kBlockedFault) << r.detail;
}

// ---- The baseline falls ----

TEST(AttackBaseline, TamperingSucceeds) {
  System sys(baseline_cfg());
  EXPECT_EQ(pt_tampering(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackBaseline, InjectionSucceeds) {
  System sys(baseline_cfg());
  EXPECT_EQ(pt_injection(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackBaseline, ReuseSucceeds) {
  System sys(baseline_cfg());
  EXPECT_EQ(pt_reuse(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackBaseline, AllocatorMetadataSucceeds) {
  System sys(baseline_cfg());
  EXPECT_EQ(allocator_metadata(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackBaseline, VmMetadataChainsToTampering) {
  System sys(baseline_cfg());
  EXPECT_EQ(vm_metadata(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackBaseline, TokenForgerySucceeds) {
  // No token table to forge on the baseline: the PCB redirection alone
  // hands the scheduler an attacker root.
  System sys(baseline_cfg());
  EXPECT_EQ(token_forgery(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackBaseline, TlbInconsistencySucceeds) {
  System sys(baseline_cfg());
  EXPECT_EQ(tlb_inconsistency(sys).outcome, Outcome::kSucceeded);
}

// ---- Full battery / reporting ----

TEST(AttackBattery, PtStoreDefendsAll) {
  const auto reports = run_all(ptstore_cfg());
  ASSERT_EQ(reports.size(), 8u);
  for (const auto& r : reports) {
    EXPECT_TRUE(r.defended()) << r.name << ": " << r.detail;
  }
}

TEST(AttackBattery, BaselineFallsToAll) {
  const auto reports = run_all(baseline_cfg());
  ASSERT_EQ(reports.size(), 8u);
  for (const auto& r : reports) {
    EXPECT_FALSE(r.defended()) << r.name << " unexpectedly defended";
  }
}

TEST(AttackBattery, CfiAloneDoesNotProtectPageTables) {
  // CFI stops code-reuse, not data-only attacks (paper §I): a CFI-only
  // kernel still loses its page tables.
  SystemConfig cfg = SystemConfig::cfi();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  EXPECT_EQ(pt_tampering(sys).outcome, Outcome::kSucceeded);
}

TEST(AttackReportApi, OutcomeStrings) {
  EXPECT_STREQ(to_string(Outcome::kSucceeded), "ATTACK SUCCEEDED");
  EXPECT_NE(std::string(to_string(Outcome::kDetectedToken)).find("token"),
            std::string::npos);
}

}  // namespace
}  // namespace ptstore::attacks
