// Backend-conformance suite: every IsolationBackend must satisfy the same
// protocol contract (ops succeed on an unattacked machine) while exposing
// its own mechanism profile — PT-page zoning, satp.S, credential style, and
// the SwitchResult it raises for a hijacked pgd. The BackendBattery tests
// pin the full §V-E attack matrix per backend against golden transcripts,
// so a behavior drift in any backend shows up as a one-line diff.
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/primitive.h"
#include "harness/battery.h"
#include "kernel/isolation.h"
#include "kernel/protocol.h"
#include "kernel/system.h"

namespace ptstore {
namespace {

SystemConfig backend_cfg(BackendKind k) {
  SystemConfig cfg = SystemConfig::for_backend(k);
  cfg.dram_size = MiB(256);
  return cfg;
}

class BackendConformance : public ::testing::TestWithParam<BackendKind> {};

TEST_P(BackendConformance, ProtocolOpsSucceedUnattacked) {
  System sys(backend_cfg(GetParam()));
  ProtocolOps proto(sys.kernel());

  const ProtoResult forked = proto.copy_mm(sys.init());
  ASSERT_EQ(forked.status, ProtoStatus::kOk);
  Process* child = sys.kernel().processes().find(forked.pid);
  ASSERT_NE(child, nullptr);

  EXPECT_EQ(proto.alloc_pt(*child, kUserSpaceBase + GiB(8)).status,
            ProtoStatus::kOk);
  EXPECT_EQ(proto.switch_mm(*child).status, ProtoStatus::kOk);
  EXPECT_EQ(proto.free_pt(*child, kUserSpaceBase + GiB(8)).status,
            ProtoStatus::kOk);
  EXPECT_EQ(proto.exit_mm(*child).status, ProtoStatus::kOk);
}

TEST_P(BackendConformance, PtPagesComeFromTheAdvertisedZone) {
  System sys(backend_cfg(GetParam()));
  Kernel& k = sys.kernel();
  Process* child = k.processes().fork(sys.init());
  ASSERT_NE(child, nullptr);
  const PhysAddr root = k.processes().pcb_pgd(*child);
  const bool in_secure = sys.sbi().sr_get().contains(root, kPageSize);
  EXPECT_EQ(in_secure, k.iso().secure_zone)
      << "root " << std::hex << root << " vs secure_zone cap";
  EXPECT_EQ(k.isolation().pt_page_gfp(),
            k.iso().secure_zone ? Gfp::kPtStore : Gfp::kKernel);
}

TEST_P(BackendConformance, SatpSBitMatchesCapability) {
  System sys(backend_cfg(GetParam()));
  EXPECT_EQ(isa::satp::secure_check(sys.core().mmu().satp()),
            sys.kernel().iso().satp_s_bit);
}

TEST_P(BackendConformance, TokenPopulationMatchesCapability) {
  System sys(backend_cfg(GetParam()));
  Kernel& k = sys.kernel();
  for (int i = 0; i < 4; ++i) ASSERT_NE(k.processes().fork(sys.init()), nullptr);
  if (k.iso().issue_tokens) {
    EXPECT_GT(k.token_cache().objects_in_use(), 0u);
  } else {
    EXPECT_EQ(k.token_cache().objects_in_use(), 0u);
  }
}

TEST_P(BackendConformance, HijackedPgdRaisesTheBackendsRejection) {
  System sys(backend_cfg(GetParam()));
  Kernel& k = sys.kernel();
  Process* victim = k.processes().fork(sys.init());
  ASSERT_NE(victim, nullptr);

  // A fake root: a plain user page no backend has ever accepted as a PT
  // page — not zoned, not registered, not MAC'd, not token-bound.
  const auto fake = k.pages().alloc_pages(Gfp::kUser, 0);
  ASSERT_TRUE(fake.has_value());
  sys.mem().fill(*fake, 0, kPageSize);
  ArbitraryRw rw(sys.core());
  ASSERT_TRUE(rw.write(victim->pcb_pgd_field(), *fake).ok);

  const SwitchResult sw = k.processes().switch_to(*victim);
  switch (k.iso().kind) {
    case BackendKind::kPtstore:
      EXPECT_EQ(sw, SwitchResult::kTokenInvalid);
      break;
    case BackendKind::kDpti:
      EXPECT_EQ(sw, SwitchResult::kDomainInvalid);
      break;
    case BackendKind::kPtauth:
      EXPECT_EQ(sw, SwitchResult::kMacInvalid);
      break;
    default:
      EXPECT_EQ(sw, SwitchResult::kOk);  // Stock: nothing checks.
      break;
  }
}

TEST_P(BackendConformance, ResolvedKindRoundTrips) {
  System sys(backend_cfg(GetParam()));
  EXPECT_EQ(sys.kernel().iso().kind, GetParam());
  EXPECT_EQ(sys.kernel().isolation().kind(), GetParam());
  EXPECT_EQ(backend_kind_from(to_string(GetParam())), GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, BackendConformance,
                         ::testing::Values(BackendKind::kStock,
                                           BackendKind::kPtstore,
                                           BackendKind::kDpti,
                                           BackendKind::kPtauth),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// ---- golden battery transcripts ----

std::string battery_transcript(BackendKind k) {
  std::ostringstream os;
  for (const attacks::AttackReport& rep :
       attacks::run_all(backend_cfg(k))) {
    os << rep.name << '|' << to_string(rep.outcome) << '\n';
  }
  return os.str();
}

std::string read_golden(const std::string& file) {
  const std::string path = std::string(PTSTORE_GOLDEN_DIR) + "/" + file;
  std::ifstream is(path);
  EXPECT_TRUE(is.good()) << "missing golden " << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(BackendBattery, Stock) {
  EXPECT_EQ(battery_transcript(BackendKind::kStock),
            read_golden("battery_stock.txt"));
}

TEST(BackendBattery, Ptstore) {
  EXPECT_EQ(battery_transcript(BackendKind::kPtstore),
            read_golden("battery_ptstore.txt"));
}

TEST(BackendBattery, Dpti) {
  EXPECT_EQ(battery_transcript(BackendKind::kDpti),
            read_golden("battery_dpti.txt"));
}

TEST(BackendBattery, Ptauth) {
  EXPECT_EQ(battery_transcript(BackendKind::kPtauth),
            read_golden("battery_ptauth.txt"));
}

}  // namespace
}  // namespace ptstore
