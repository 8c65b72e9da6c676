#include "cache/cache.h"

#include <gtest/gtest.h>

namespace ptstore {
namespace {

CacheConfig small_cfg() {
  CacheConfig cfg;
  cfg.name = "T";
  cfg.size_bytes = KiB(1);  // 4 sets x 4 ways x 64B.
  cfg.ways = 4;
  cfg.line_bytes = 64;
  cfg.hit_latency = 1;
  cfg.miss_penalty = 30;
  cfg.dirty_evict_penalty = 8;
  return cfg;
}

TEST(Cache, Geometry) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  EXPECT_EQ(c.num_sets(), 4u);
}

TEST(Cache, ColdMissThenHit) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  const auto m = c.access(0x1000, false);
  EXPECT_FALSE(m.hit);
  EXPECT_EQ(m.cycles, 31u);
  const auto h = c.access(0x1000, false);
  EXPECT_TRUE(h.hit);
  EXPECT_EQ(h.cycles, 1u);
  EXPECT_EQ(bank.value_of("T.hits"), 1u);
  EXPECT_EQ(bank.value_of("T.misses"), 1u);
}

TEST(Cache, SameLineDifferentOffsetHits) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  c.access(0x1000, false);
  EXPECT_TRUE(c.access(0x103F, false).hit);
  EXPECT_FALSE(c.access(0x1040, false).hit);  // Next line.
}

TEST(Cache, AssociativityHoldsFourWays) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  // Four addresses mapping to set 0 (set stride = 4 sets * 64B = 256B).
  for (u64 i = 0; i < 4; ++i) c.access(0x1000 + i * 256, false);
  for (u64 i = 0; i < 4; ++i) EXPECT_TRUE(c.access(0x1000 + i * 256, false).hit);
}

TEST(Cache, LruEviction) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  for (u64 i = 0; i < 4; ++i) c.access(0x1000 + i * 256, false);
  c.access(0x1000, false);          // Refresh way 0.
  c.access(0x1000 + 5 * 256, false);  // Evicts the LRU (i=1).
  EXPECT_TRUE(c.access(0x1000, false).hit);
  EXPECT_FALSE(c.access(0x1000 + 1 * 256, false).hit);
}

TEST(Cache, DirtyEvictionCostsWriteback) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  c.access(0x1000, true);  // Dirty line in set 0.
  for (u64 i = 1; i < 4; ++i) c.access(0x1000 + i * 256, false);
  const auto r = c.access(0x1000 + 4 * 256, false);  // Evicts dirty line.
  EXPECT_FALSE(r.hit);
  EXPECT_EQ(r.cycles, 1u + 30u + 8u);
  EXPECT_EQ(bank.value_of("T.writebacks"), 1u);
}

TEST(Cache, ReadAfterWriteKeepsDirty) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  c.access(0x1000, true);
  c.access(0x1000, false);  // Read must not clear dirty.
  for (u64 i = 1; i < 5; ++i) c.access(0x1000 + i * 256, false);
  EXPECT_EQ(bank.value_of("T.writebacks"), 1u);
}

TEST(Cache, InvalidateAll) {
  telemetry::CounterBank bank;
  Cache c(small_cfg(), bank);
  c.access(0x1000, false);
  c.invalidate_all();
  EXPECT_FALSE(c.access(0x1000, false).hit);
  EXPECT_EQ(bank.value_of("T.flushes"), 1u);
}

// Parameterized sweep: hit rate of a sequential walk fitting in the cache
// must be perfect after the first pass, for several geometries.
class CacheGeometrySweep : public ::testing::TestWithParam<std::tuple<u64, unsigned>> {};

TEST_P(CacheGeometrySweep, ResidentWorkingSetAlwaysHits) {
  const auto [size, ways] = GetParam();
  CacheConfig cfg = small_cfg();
  cfg.size_bytes = size;
  cfg.ways = ways;
  telemetry::CounterBank bank;
  Cache c(cfg, bank);
  for (u64 a = 0; a < size; a += cfg.line_bytes) c.access(0x8000'0000 + a, false);
  for (u64 a = 0; a < size; a += cfg.line_bytes) {
    EXPECT_TRUE(c.access(0x8000'0000 + a, false).hit) << a;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(std::make_tuple(KiB(1), 1u), std::make_tuple(KiB(1), 4u),
                      std::make_tuple(KiB(16), 4u), std::make_tuple(KiB(16), 8u),
                      std::make_tuple(KiB(4), 2u)));

}  // namespace
}  // namespace ptstore
