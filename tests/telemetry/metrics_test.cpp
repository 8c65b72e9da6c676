// Interned counters: registry identity, metadata merging, handle semantics,
// and the nonzero-only StatSet snapshot contract.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

namespace ptstore::telemetry {
namespace {

TEST(MetricsRegistry, InternIsIdempotent) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  const CounterId a = reg.intern("test.metrics.alpha");
  const CounterId b = reg.intern("test.metrics.beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.intern("test.metrics.alpha"), a);
  EXPECT_EQ(reg.meta(a).name, "test.metrics.alpha");
  EXPECT_EQ(reg.meta(a).unit, "events");  // Default unit.
  ASSERT_TRUE(reg.find("test.metrics.alpha").has_value());
  EXPECT_EQ(*reg.find("test.metrics.alpha"), a);
  EXPECT_FALSE(reg.find("test.metrics.never-registered").has_value());
}

TEST(MetricsRegistry, FirstNonEmptyMetadataWins) {
  MetricsRegistry& reg = MetricsRegistry::instance();
  const CounterId id = reg.intern("test.metrics.meta");
  EXPECT_EQ(reg.meta(id).description, "");
  reg.intern("test.metrics.meta", "first description", "cycles");
  EXPECT_EQ(reg.meta(id).description, "first description");
  EXPECT_EQ(reg.meta(id).unit, "cycles");
  reg.intern("test.metrics.meta", "second description", "bytes");
  EXPECT_EQ(reg.meta(id).description, "first description");
  EXPECT_EQ(reg.meta(id).unit, "cycles");
}

TEST(CounterBank, HandleIncrementsItsCell) {
  CounterBank bank;
  Counter c = bank.counter("test.metrics.count", "a test counter");
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(9);
  EXPECT_EQ(c.value(), 10u);
  EXPECT_EQ(bank.value_of("test.metrics.count"), 10u);
  c.set(3);
  EXPECT_EQ(bank.value_of("test.metrics.count"), 3u);
}

TEST(CounterBank, DefaultHandleIsInert) {
  Counter c;
  c.add(100);  // Writes the shared sink, not memory we care about.
  EXPECT_EQ(c.id(), kInvalidCounterId);
}

TEST(CounterBank, SnapshotSkipsZeroCounters) {
  CounterBank bank;
  Counter touched = bank.counter("test.metrics.touched");
  bank.counter("test.metrics.untouched");
  touched.add(5);
  const StatSet s = bank.snapshot();
  EXPECT_TRUE(s.has("test.metrics.touched"));
  EXPECT_EQ(s.get("test.metrics.touched"), 5u);
  // Zero counters stay absent — "a key exists iff it was bumped".
  EXPECT_FALSE(s.has("test.metrics.untouched"));
}

TEST(CounterBank, BanksShareNamesButNotValues) {
  CounterBank a, b;
  Counter ca = a.counter("test.metrics.shared");
  Counter cb = b.counter("test.metrics.shared");
  EXPECT_EQ(ca.id(), cb.id());  // Same interned identity...
  ca.add(7);
  EXPECT_EQ(a.value_of("test.metrics.shared"), 7u);  // ...separate cells.
  EXPECT_EQ(b.value_of("test.metrics.shared"), 0u);
}

TEST(CounterBank, ReregisteringANameReusesItsCell) {
  CounterBank bank;
  Counter first = bank.counter("test.metrics.rebuilt");
  first.add(2);
  // A component rebuilt over the same bank keeps counting in the same cell.
  Counter second = bank.counter("test.metrics.rebuilt");
  second.add(3);
  EXPECT_EQ(first.value(), 5u);
  EXPECT_EQ(bank.size(), 1u);
  EXPECT_EQ(bank.snapshot().get("test.metrics.rebuilt"), 5u);
}

TEST(CounterBank, ClearZeroesCells) {
  CounterBank bank;
  Counter c = bank.counter("test.metrics.cleared");
  c.add(4);
  bank.clear();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_FALSE(bank.snapshot().has("test.metrics.cleared"));
}

}  // namespace
}  // namespace ptstore::telemetry
