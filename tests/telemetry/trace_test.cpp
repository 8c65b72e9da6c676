// EventRing: ring bounds, session numbering, and ScopedSpan's two
// observers (the ring's balanced begin/end, the profiler's tagged frame).
#include "telemetry/trace.h"

#include <gtest/gtest.h>

namespace ptstore::telemetry {
namespace {

TEST(EventRing, DropsOldestWhenFull) {
  EventRing ring(4);
  for (u64 i = 0; i < 10; ++i) {
    ring.instant(Subsystem::kOther, "i", i, i, 3, i);
  }
  EXPECT_EQ(ring.events().size(), 4u);
  EXPECT_EQ(ring.total_emitted(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  EXPECT_EQ(ring.events().front().arg, 6u);  // Oldest retained.
  EXPECT_EQ(ring.events().back().arg, 9u);
}

TEST(EventRing, SessionsNumberTheEvents) {
  EventRing ring;
  ring.instant(Subsystem::kOther, "boot", 0, 0, 3);
  ring.session_begin();
  ring.instant(Subsystem::kOther, "a", 0, 0, 3);
  ring.session_begin();
  ring.instant(Subsystem::kOther, "b", 0, 0, 3);
  EXPECT_EQ(ring.sessions(), 2u);
  ASSERT_EQ(ring.events().size(), 3u);
  EXPECT_EQ(ring.events()[0].session, 0u);
  EXPECT_EQ(ring.events()[1].session, 1u);
  EXPECT_EQ(ring.events()[2].session, 2u);
}

TEST(GlobalTracing, EnableDisableRoundTrip) {
  disable_tracing();
  EXPECT_EQ(tracing(), nullptr);
  EventRing& ring = enable_tracing(8);
  ASSERT_EQ(tracing(), &ring);
  EXPECT_EQ(ring.capacity(), 8u);
  disable_tracing();
  EXPECT_EQ(tracing(), nullptr);
}

struct FakeClock {
  u64 c = 0;
  u64 cycles() const { return c; }
  u64 instret() const { return c / 2; }
  int priv() const { return 1; }
};

TEST(ScopedSpan, EmitsBalancedBeginEnd) {
  EventRing& ring = enable_tracing();
  Profiler& prof = enable_profiling();
  ring.session_begin();
  prof.session_begin("run", 0, 1);
  FakeClock clock;
  {
    ScopedSpan<FakeClock> span(clock, Subsystem::kSwitchMm, "switch_mm", 42);
    clock.c = 25;
  }
  prof.session_end(25);
  ASSERT_EQ(ring.events().size(), 2u);
  EXPECT_EQ(ring.events()[0].phase, EventPhase::kBegin);
  EXPECT_EQ(ring.events()[0].arg, 42u);
  EXPECT_EQ(ring.events()[1].phase, EventPhase::kEnd);
  EXPECT_EQ(ring.events()[1].cycles, 25u);
  EXPECT_EQ(prof.cycle_profile()
                .self_cycles[static_cast<size_t>(Subsystem::kSwitchMm)],
            25u);
  disable_profiling();
  disable_tracing();
}

TEST(ScopedSpan, NoOpWhileTracingDisabled) {
  disable_tracing();
  FakeClock clock;
  ScopedSpan<FakeClock> span(clock, Subsystem::kTrap, "trap");
  SUCCEED();  // Nothing to observe; must simply not crash.
}

}  // namespace
}  // namespace ptstore::telemetry
