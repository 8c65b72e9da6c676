#include "cache/tlb.h"

#include <gtest/gtest.h>

#include "mmu/pte.h"

namespace ptstore {
namespace {

TlbConfig cfg8() { return TlbConfig{.name = "T", .entries = 8}; }

TEST(Tlb, MissThenHit) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  EXPECT_EQ(t.lookup(0x1000, 1), nullptr);
  t.insert(0x1000, 1, 0, 0xABC, false);
  const TlbEntry* e = t.lookup(0x1000, 1);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pte, 0xABCu);
  EXPECT_EQ(t.occupancy(), 1u);
}

TEST(Tlb, AsidIsolation) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x1000, 1, 0, 0xA, false);
  EXPECT_EQ(t.lookup(0x1000, 2), nullptr);
  EXPECT_NE(t.lookup(0x1000, 1), nullptr);
}

TEST(Tlb, GlobalMatchesAnyAsid) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x1000, 1, 0, 0xA, true);
  EXPECT_NE(t.lookup(0x1000, 2), nullptr);
  EXPECT_NE(t.lookup(0x1000, 7), nullptr);
}

TEST(Tlb, SuperpageReach) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  // 1 GiB superpage (level 2) at VA 0x4000_0000.
  t.insert(0x4000'0000, 1, 2, 0xBEEF, false);
  EXPECT_NE(t.lookup(0x4000'0000, 1), nullptr);
  EXPECT_NE(t.lookup(0x7FFF'FFF8, 1), nullptr);  // Same gigapage.
  EXPECT_EQ(t.lookup(0x8000'0000, 1), nullptr);  // Next gigapage.
}

TEST(Tlb, MegapageReach) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x0020'0000, 3, 1, 0x1, false);
  EXPECT_NE(t.lookup(0x0020'0000 + MiB(1), 3), nullptr);
  EXPECT_EQ(t.lookup(0x0040'0000, 3), nullptr);
}

TEST(Tlb, LruEvictionAtCapacity) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  for (u64 i = 0; i < 8; ++i) t.insert(i << kPageShift, 1, 0, i, false);
  (void)t.lookup(0, 1);  // Refresh entry 0.
  t.insert(u64{100} << kPageShift, 1, 0, 100, false);  // Evicts VA page 1.
  EXPECT_NE(t.lookup(0, 1), nullptr);
  EXPECT_EQ(t.lookup(u64{1} << kPageShift, 1), nullptr);
  EXPECT_EQ(t.occupancy(), 8u);
}

TEST(Tlb, FlushAll) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x1000, 1, 0, 1, false);
  t.insert(0x2000, 2, 0, 2, true);
  t.flush(std::nullopt, std::nullopt);
  EXPECT_EQ(t.occupancy(), 0u);
}

TEST(Tlb, FlushByAsidSparesGlobalsAndOtherAsids) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x1000, 1, 0, 1, false);
  t.insert(0x2000, 2, 0, 2, false);
  t.insert(0x3000, 1, 0, 3, true);  // Global.
  t.flush(std::nullopt, u16{1});
  EXPECT_EQ(t.lookup(0x1000, 1), nullptr);
  EXPECT_NE(t.lookup(0x2000, 2), nullptr);
  EXPECT_NE(t.lookup(0x3000, 1), nullptr);  // Global survives ASID flush.
}

TEST(Tlb, FlushByAddress) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x1000, 1, 0, 1, false);
  t.insert(0x2000, 1, 0, 2, false);
  t.flush(VirtAddr{0x1000}, std::nullopt);
  EXPECT_EQ(t.lookup(0x1000, 1), nullptr);
  EXPECT_NE(t.lookup(0x2000, 1), nullptr);
}

TEST(Tlb, FlushAddressMatchesSuperpageReach) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  t.insert(0x4000'0000, 1, 2, 1, false);  // 1 GiB page.
  t.flush(VirtAddr{0x5000'0000}, std::nullopt);  // Address inside its reach.
  EXPECT_EQ(t.lookup(0x4000'0000, 1), nullptr);
}

TEST(Tlb, StatsTracked) {
  telemetry::CounterBank bank;
  Tlb t(cfg8(), bank);
  (void)t.lookup(0x1000, 1);
  t.insert(0x1000, 1, 0, 1, false);
  (void)t.lookup(0x1000, 1);
  EXPECT_EQ(bank.value_of("T.misses"), 1u);
  EXPECT_EQ(bank.value_of("T.hits"), 1u);
  EXPECT_EQ(bank.value_of("T.fills"), 1u);
}

// Parameterized: entry-count sweep preserves "resident set always hits".
class TlbSizeSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(TlbSizeSweep, ResidentSetHits) {
  telemetry::CounterBank bank;
  Tlb t(TlbConfig{.name = "T", .entries = GetParam()}, bank);
  for (unsigned i = 0; i < GetParam(); ++i) {
    t.insert(u64{i} << kPageShift, 1, 0, i, false);
  }
  for (unsigned i = 0; i < GetParam(); ++i) {
    EXPECT_NE(t.lookup(u64{i} << kPageShift, 1), nullptr) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TlbSizeSweep, ::testing::Values(1u, 4u, 8u, 32u));

}  // namespace
}  // namespace ptstore
