// Optional L2 level: hierarchy cost structure and end-to-end effect on a
// core with an L2 configured (a what-if beyond the paper's Table II).
#include <gtest/gtest.h>

#include "cpu/core.h"

namespace ptstore {
namespace {

TEST(L2, HierarchyChargesL2OnL1Miss) {
  CacheConfig l1c;
  l1c.name = "L1";
  l1c.size_bytes = KiB(1);
  l1c.ways = 1;
  l1c.hit_latency = 1;
  l1c.miss_penalty = 30;
  CacheConfig l2c;
  l2c.name = "L2";
  l2c.size_bytes = KiB(64);
  l2c.ways = 8;
  l2c.hit_latency = 10;
  l2c.miss_penalty = 60;
  telemetry::CounterBank bank;
  Cache l1(l1c, bank), l2(l2c, bank);

  // Cold: L1 miss + L2 miss = 10 + 60 beyond L1 hit latency.
  EXPECT_EQ(Cache::hierarchy_access(l1, &l2, 0x1000, false), 70u);
  // L1 hit: zero excess.
  EXPECT_EQ(Cache::hierarchy_access(l1, &l2, 0x1000, false), 0u);
  // Evict from the tiny L1 but stay in L2: next access is an L2 hit.
  for (u64 a = 0x2000; a < 0x2000 + KiB(2); a += 64) {
    (void)Cache::hierarchy_access(l1, &l2, a, false);
  }
  EXPECT_EQ(Cache::hierarchy_access(l1, &l2, 0x1000, false), 10u);
}

TEST(L2, NullL2DegradesToL1Only) {
  CacheConfig l1c;
  l1c.name = "L1";
  l1c.size_bytes = KiB(1);
  l1c.ways = 1;
  telemetry::CounterBank bank;
  Cache l1(l1c, bank);
  EXPECT_EQ(Cache::hierarchy_access(l1, nullptr, 0x1000, false),
            l1c.miss_penalty);
  EXPECT_EQ(Cache::hierarchy_access(l1, nullptr, 0x1000, false), 0u);
}

TEST(L2, CoreWithL2SpeedsUpMediumWorkingSets) {
  auto chase_cycles = [](bool l2_on) {
    PhysMem mem(kDramBase, MiB(32));
    CoreConfig cfg;
    cfg.l2_enabled = l2_on;
    Core core(mem, cfg);
    // 64 KiB sequential sweep (bigger than L1, smaller than L2), twice:
    // the second pass hits L2 when present.
    Cycles c = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (u64 a = 0; a < KiB(64); a += 64) {
        const MemAccessResult r = core.access_as(
            kDramBase + MiB(1) + a, 8, AccessType::kRead, AccessKind::kRegular,
            Privilege::kMachine);
        if (pass == 1) c += r.cycles;
      }
    }
    return c;
  };
  EXPECT_LT(chase_cycles(true), chase_cycles(false));
}

TEST(L2, DisabledByDefaultPerTableII) {
  CoreConfig cfg;
  EXPECT_FALSE(cfg.l2_enabled);
  // And a default system reports no L2 counters.
  PhysMem mem(kDramBase, MiB(32));
  Core core(mem, cfg);
  (void)core.access_as(kDramBase + MiB(1), 8, AccessType::kRead,
                       AccessKind::kRegular, Privilege::kMachine);
  EXPECT_FALSE(core.merged_stats().has("L2.misses"));
}

TEST(L2, PtwFetchesBenefitFromL2) {
  // Build a translation whose PTE pages fall out of L1 between walks: with
  // L2 the re-walk is cheaper.
  auto walk_cycles = [](bool l2_on) {
    PhysMem mem(kDramBase, MiB(32));
    CoreConfig ccfg;
    ccfg.l2_enabled = l2_on;
    Core core(mem, ccfg);
    const PhysAddr root = kDramBase + MiB(2);
    const PhysAddr l1t = root + kPageSize;
    const PhysAddr l0t = root + 2 * kPageSize;
    const VirtAddr va = 0x40'0000'0000 >> 2;  // Arbitrary canonical VA.
    mem.write_u64(root + bits(va, 30, 9) * 8, pte::make_from_pa(l1t, pte::kV));
    mem.write_u64(l1t + bits(va, 21, 9) * 8, pte::make_from_pa(l0t, pte::kV));
    mem.write_u64(l0t + bits(va, 12, 9) * 8,
                  pte::make_from_pa(kDramBase + MiB(8),
                                    pte::kV | pte::kR | pte::kA));
    core.write_csr(isa::csr::kSatp,
                   isa::satp::make(isa::satp::kModeSv39, 1, root >> kPageShift,
                                   false),
                   Privilege::kSupervisor);
    // First walk warms L2 (and L1); thrash L1 with a 32 KiB sweep; re-walk.
    (void)core.access_as(va, 8, AccessType::kRead, AccessKind::kRegular,
                         Privilege::kSupervisor);
    for (u64 a = 0; a < KiB(32); a += 64) {
      (void)core.access_as(kDramBase + MiB(16) + a, 8, AccessType::kRead,
                           AccessKind::kRegular, Privilege::kMachine);
    }
    core.mmu().sfence(std::nullopt, std::nullopt);  // Force a fresh walk.
    return core
        .access_as(va, 8, AccessType::kRead, AccessKind::kRegular,
                   Privilege::kSupervisor)
        .cycles;
  };
  EXPECT_LT(walk_cycles(true), walk_cycles(false));
}

}  // namespace
}  // namespace ptstore
