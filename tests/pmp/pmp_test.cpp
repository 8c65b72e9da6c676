// Base-spec PMP semantics: matching modes, priority, permissions, locking.
#include "pmp/pmp.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/bits.h"
#include "common/rng.h"

namespace ptstore {
namespace {

u8 cfg_of(PmpMatch m, u8 perms, bool s = false, bool l = false) {
  return static_cast<u8>(perms | (static_cast<u8>(m) << pmpcfg::kAShift) |
                         (s ? pmpcfg::kS : 0) | (l ? pmpcfg::kL : 0));
}

TEST(Pmp, NoEntriesAllowsEverything) {
  PmpUnit pmp;
  EXPECT_FALSE(pmp.any_active());
  for (Privilege p : {Privilege::kUser, Privilege::kSupervisor, Privilege::kMachine}) {
    EXPECT_TRUE(pmp.check(0x8000'0000, 8, AccessType::kRead, AccessKind::kRegular, p)
                    .allowed);
  }
}

TEST(Pmp, TorRange) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x8010'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR | pmpcfg::kW));
  const auto r = pmp.entry_range(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 0u);
  EXPECT_EQ(r->second, 0x8010'0000u);
}

TEST(Pmp, TorChained) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x8000'0000 >> 2);
  pmp.set_addr(1, 0x9000'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR | pmpcfg::kW | pmpcfg::kX));
  pmp.set_cfg(1, cfg_of(PmpMatch::kTor, pmpcfg::kR));
  const auto r1 = pmp.entry_range(1);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->first, 0x8000'0000u);
  EXPECT_EQ(r1->second, 0x9000'0000u);
}

TEST(Pmp, TorEmptyRangeDoesNotMatch) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x8000'0000 >> 2);
  pmp.set_addr(1, 0x8000'0000 >> 2);  // hi == lo: empty.
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR));
  pmp.set_cfg(1, cfg_of(PmpMatch::kTor, pmpcfg::kR));
  EXPECT_FALSE(pmp.entry_range(1).has_value());
}

TEST(Pmp, Na4) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x8000'1000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kNa4, pmpcfg::kR));
  const auto r = pmp.entry_range(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->second - r->first, 4u);
}

TEST(Pmp, NapotSizes) {
  PmpUnit pmp;
  // NAPOT 4 KiB at 0x8000_0000: pmpaddr = (base >> 2) | ((4096/8) - 1).
  pmp.set_addr(0, (0x8000'0000 >> 2) | 0x1FF);
  pmp.set_cfg(0, cfg_of(PmpMatch::kNapot, pmpcfg::kR));
  auto r = pmp.entry_range(0);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->first, 0x8000'0000u);
  EXPECT_EQ(r->second, 0x8000'1000u);

  // NAPOT 64 MiB.
  pmp.set_addr(1, (0x9000'0000 >> 2) | ((MiB(64) / 8) - 1));
  pmp.set_cfg(1, cfg_of(PmpMatch::kNapot, pmpcfg::kR));
  r = pmp.entry_range(1);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->second - r->first, MiB(64));
}

TEST(Pmp, PermissionBitsEnforced) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x9000'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR));  // Read-only region.
  const auto rd =
      pmp.check(0x8000'0000, 8, AccessType::kRead, AccessKind::kRegular, Privilege::kSupervisor);
  EXPECT_TRUE(rd.allowed);
  const auto wr =
      pmp.check(0x8000'0000, 8, AccessType::kWrite, AccessKind::kRegular, Privilege::kSupervisor);
  EXPECT_FALSE(wr.allowed);
  EXPECT_EQ(wr.reason, PmpDenyReason::kPermission);
  const auto ex =
      pmp.check(0x8000'0000, 4, AccessType::kExecute, AccessKind::kRegular, Privilege::kSupervisor);
  EXPECT_FALSE(ex.allowed);
}

TEST(Pmp, PriorityLowestIndexWins) {
  PmpUnit pmp;
  // Entry 0: small NAPOT RO page inside the big RW TOR of entry 1.
  pmp.set_addr(0, (0x8000'0000 >> 2) | 0x1FF);
  pmp.set_cfg(0, cfg_of(PmpMatch::kNapot, pmpcfg::kR));
  pmp.set_addr(1, 0x9000'0000 >> 2);
  pmp.set_cfg(1, cfg_of(PmpMatch::kTor, pmpcfg::kR | pmpcfg::kW));
  const auto wr = pmp.check(0x8000'0000, 8, AccessType::kWrite, AccessKind::kRegular,
                            Privilege::kSupervisor);
  EXPECT_FALSE(wr.allowed);  // Entry 0 wins despite entry 1 allowing W.
  EXPECT_EQ(wr.entry, 0);
  const auto wr2 = pmp.check(0x8000'2000, 8, AccessType::kWrite, AccessKind::kRegular,
                             Privilege::kSupervisor);
  EXPECT_TRUE(wr2.allowed);
  EXPECT_EQ(wr2.entry, 1);
}

TEST(Pmp, PartialMatchDenied) {
  PmpUnit pmp;
  pmp.set_addr(0, (0x8000'0000 >> 2) | 0x1FF);  // 4 KiB NAPOT.
  pmp.set_cfg(0, cfg_of(PmpMatch::kNapot, pmpcfg::kR | pmpcfg::kW));
  // 8-byte access straddling the region's end.
  const auto r = pmp.check(0x8000'0FFC, 8, AccessType::kRead, AccessKind::kRegular,
                           Privilege::kSupervisor);
  EXPECT_FALSE(r.allowed);
  EXPECT_EQ(r.reason, PmpDenyReason::kPartialMatch);
}

TEST(Pmp, NoMatchDeniesSupervisorWhenActive) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x8000'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR | pmpcfg::kW | pmpcfg::kX));
  const auto r = pmp.check(0x9000'0000, 8, AccessType::kRead, AccessKind::kRegular,
                           Privilege::kSupervisor);
  EXPECT_FALSE(r.allowed);
  EXPECT_EQ(r.reason, PmpDenyReason::kNoMatch);
  // M-mode is not subject to unmatched-entry denial.
  EXPECT_TRUE(pmp.check(0x9000'0000, 8, AccessType::kRead, AccessKind::kRegular,
                        Privilege::kMachine)
                  .allowed);
}

TEST(Pmp, MachineModeBypassesUnlockedEntries) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x9000'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, 0));  // No permissions at all.
  EXPECT_TRUE(pmp.check(0x8800'0000, 8, AccessType::kWrite, AccessKind::kRegular,
                        Privilege::kMachine)
                  .allowed);
  EXPECT_FALSE(pmp.check(0x8800'0000, 8, AccessType::kWrite, AccessKind::kRegular,
                         Privilege::kSupervisor)
                   .allowed);
}

TEST(Pmp, LockedEntryBindsMachineMode) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x9000'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR, false, /*locked=*/true));
  EXPECT_FALSE(pmp.check(0x8800'0000, 8, AccessType::kWrite, AccessKind::kRegular,
                         Privilege::kMachine)
                   .allowed);
  // Locked cfg ignores further writes.
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR | pmpcfg::kW));
  EXPECT_FALSE(pmp.check(0x8800'0000, 8, AccessType::kWrite, AccessKind::kRegular,
                         Privilege::kMachine)
                   .allowed);
  // Locked addr ignores writes too.
  const u64 before = pmp.addr(0);
  pmp.set_addr(0, 0x1234);
  EXPECT_EQ(pmp.addr(0), before);
}

TEST(Pmp, DescribeListsActiveEntries) {
  PmpUnit pmp;
  pmp.set_addr(0, 0x9000'0000 >> 2);
  pmp.set_cfg(0, cfg_of(PmpMatch::kTor, pmpcfg::kR | pmpcfg::kW, true));
  const std::string d = pmp.describe();
  EXPECT_NE(d.find("pmp0"), std::string::npos);
  EXPECT_NE(d.find("RW-S-"), std::string::npos);
}

// check() answers in-page accesses from its decision memo; scan() is the
// uncached reference. They must agree on every call: across random
// configurations (OFF/TOR/NA4/NAPOT entries with S and L bits, boundaries
// inside pages and on their edges), secure-enforcement toggles, and
// accesses of every size, type, kind and privilege, the recent ones replayed
// after each configuration write.
// The region map (check, is_secure, any_active) against the references it
// replaces: scan(), the 16-entry is_secure_scan() loop and a scan of the cfg
// registers. Random configurations over a few pages, plus the largest
// ranges pmpaddr can express (it holds bits [55:2], so no entry reaches
// 2^64: the largest NAPOT region is [0, 2^57)) and accesses that wrap past
// 2^64. The S-bit enforcement is toggled between lookups too.
TEST(Pmp, RegionMapMatchesScan) {
  constexpr PhysAddr kBase = 0x8000'0000;
  constexpr u64 kPages = 16;
  constexpr u64 kTopAddr = mask_lo(54);  // Widest pmpaddr value.
  constexpr AccessType kTypes[] = {AccessType::kRead, AccessType::kWrite,
                                   AccessType::kExecute};
  constexpr AccessKind kKinds[] = {AccessKind::kRegular, AccessKind::kPtInsn,
                                   AccessKind::kPtw};
  constexpr Privilege kPrivs[] = {Privilege::kUser, Privilege::kSupervisor,
                                  Privilege::kMachine};
  struct Access {
    PhysAddr pa;
    u64 size;
    AccessType type;
    AccessKind kind;
    Privilege priv;
  };
  Rng rng(0x5EED);
  // A page edge, or a 4-byte-aligned point inside a page.
  auto boundary = [&rng]() -> PhysAddr {
    const PhysAddr page = kBase + rng.next_below(kPages + 1) * kPageSize;
    return rng.chance(0.5) ? page : page + 4 * rng.next_below(kPageSize / 4);
  };
  // Edges of the largest ranges: the top of pmpaddr's reach (2^56), the end
  // of the all-ones NAPOT region (2^57), and 2^64 itself.
  auto high_edge = [&rng]() -> PhysAddr {
    constexpr PhysAddr kEdges[] = {PhysAddr{1} << 56, PhysAddr{1} << 57, 0};
    return kEdges[rng.next_below(3)];
  };
  u64 compared = 0;
  auto expect_same = [&](const PmpUnit& pmp, const Access& a) {
    const PmpDecision want = pmp.scan(a.pa, a.size, a.type, a.kind, a.priv);
    const PmpDecision got = pmp.check(a.pa, a.size, a.type, a.kind, a.priv);
    ASSERT_EQ(got.allowed, want.allowed) << std::hex << a.pa << " size " << a.size;
    ASSERT_EQ(got.reason, want.reason) << std::hex << a.pa << " size " << a.size;
    ASSERT_EQ(got.entry, want.entry) << std::hex << a.pa << " size " << a.size;
    ASSERT_EQ(pmp.is_secure(a.pa, a.size), pmp.is_secure_scan(a.pa, a.size))
        << std::hex << a.pa << " size " << a.size;
    bool active = false;
    for (unsigned i = 0; i < kPmpEntryCount; ++i) {
      active = active || (pmp.cfg(i) & pmpcfg::kAMask) != 0;
    }
    ASSERT_EQ(pmp.any_active(), active);
    ++compared;
  };

  for (int round = 0; round < 100; ++round) {
    PmpUnit pmp;
    std::vector<Access> recent;
    for (int step = 0; step < 40; ++step) {
      const unsigned idx = static_cast<unsigned>(rng.next_below(kPmpEntryCount));
      switch (rng.next_below(6)) {
        case 0:
        case 1: {
          const auto mode = static_cast<PmpMatch>(rng.next_below(4));
          const u8 perms = static_cast<u8>(rng.next_below(8));
          pmp.set_cfg(idx, cfg_of(mode, perms, rng.chance(0.3), rng.chance(0.05)));
          break;
        }
        case 2:  // TOR top or NA4 base.
          pmp.set_addr(idx, boundary() >> 2);
          break;
        case 3: {  // NAPOT region of 8 B .. 64 KiB.
          const u64 size = u64{8} << rng.next_below(14);
          pmp.set_addr(idx, (align_down(boundary(), size) >> 2) | (size / 8 - 1));
          break;
        }
        case 4:  // The widest reach: TOR top / NA4 at 2^56 - 4, NAPOT [0, 2^57).
          pmp.set_addr(idx, rng.chance(0.5) ? kTopAddr : kTopAddr >> 1);
          break;
        default:
          pmp.set_secure_enforcement(rng.chance(0.5));
          break;
      }
      for (const Access& a : recent) expect_same(pmp, a);
      for (int k = 0; k < 24; ++k) {
        Access a{};
        switch (rng.next_below(4)) {
          case 0:
          case 1:
            a.pa = kBase + rng.next_below(kPages * kPageSize);
            break;
          case 2:
            a.pa = boundary() - 8 + rng.next_below(16);
            break;
          default:  // Around a high edge; from 2^64 - 8 up, accesses wrap.
            a.pa = high_edge() - 8 + rng.next_below(16);
            break;
        }
        a.size = u64{1} << rng.next_below(4);
        a.type = kTypes[rng.next_below(3)];
        a.kind = kKinds[rng.next_below(3)];
        a.priv = kPrivs[rng.next_below(3)];
        expect_same(pmp, a);
        if (recent.size() < 32) {
          recent.push_back(a);
        } else {
          recent[rng.next_below(recent.size())] = a;
        }
        // Flip the enforcement between two lookups; the next ones (this
        // access again, then the recent ones) must see it.
        if (rng.chance(0.05)) {
          pmp.set_secure_enforcement(!pmp.secure_enforcement());
          expect_same(pmp, a);
          for (const Access& r : recent) expect_same(pmp, r);
        }
      }
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(compared, 300'000u);
}

}  // namespace
}  // namespace ptstore
