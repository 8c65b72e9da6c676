// Unit tests for the exact call-stack profiler and its exchange forms:
// attribution arithmetic (self cycles sum to the session total), guest
// symbolization, the depth cap, the per-subsystem and per-privilege rollup
// (CycleProfile), folded-stack merge algebra, label filtering,
// the derived function/edge tables, differential attribution, the JSON
// round trip, and the SVG flamegraph's determinism and escaping.
#include "telemetry/profile.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "telemetry/flamegraph.h"
#include "telemetry/trace.h"

namespace ptstore::telemetry {
namespace {

u64 folded_sum(const FoldedProfile& p) {
  u64 sum = 0;
  for (const auto& [key, e] : p.stacks) sum += e.cycles;
  return sum;
}

TEST(Profiler, PushPopSelfCyclesSumToSessionTotal) {
  Profiler prof;
  prof.session_begin("t", 0, 1);
  prof.push("a", 10, 1);
  prof.push("b", 20, 1);
  prof.pop(30, 1);
  prof.pop(40, 1);
  prof.session_end(50);

  const FoldedProfile p = prof.snapshot();
  EXPECT_EQ(p.total_cycles, 50u);
  EXPECT_EQ(folded_sum(p), p.total_cycles);
  EXPECT_EQ(p.stacks.at("t;[S]").cycles, 20u);       // [0,10) + [40,50).
  EXPECT_EQ(p.stacks.at("t;[S];a").cycles, 20u);     // [10,20) + [30,40).
  EXPECT_EQ(p.stacks.at("t;[S];a;b").cycles, 10u);   // [20,30).
  EXPECT_EQ(p.stacks.at("t;[S];a;b").count, 1u);
}

TEST(Profiler, ReenteredLabelAccumulatesIntoOneTree) {
  Profiler prof;
  for (int run = 0; run < 2; ++run) {
    prof.session_begin("t", 0, 1);
    prof.push("a", 2, 1);
    prof.pop(8, 1);
    prof.session_end(10);
  }
  const FoldedProfile p = prof.snapshot();
  EXPECT_EQ(p.total_cycles, 20u);
  EXPECT_EQ(p.stacks.at("t;[S];a").cycles, 12u);
  EXPECT_EQ(p.stacks.at("t;[S];a").count, 2u);
}

TEST(Profiler, GuestCallsSymbolizeAtSnapshotTime) {
  Profiler prof;
  prof.session_begin("t", 0, 0);
  prof.on_call(0x1000, 5, 0);
  prof.on_ret(15, 0);
  prof.on_call(0x2000, 20, 0);
  prof.on_ret(30, 0);
  prof.session_end(40);
  prof.add_symbol(0x1000, "named_fn");  // After the calls: snapshot-time lookup.

  const FoldedProfile p = prof.snapshot();
  EXPECT_EQ(p.stacks.at("t;[U];named_fn").cycles, 10u);
  EXPECT_EQ(p.stacks.at("t;[U];guest_0x2000").cycles, 10u);
  EXPECT_TRUE(is_unattributed_frame("guest_0x2000"));
  EXPECT_TRUE(is_unattributed_frame("[U]"));
  EXPECT_FALSE(is_unattributed_frame("named_fn"));
}

TEST(Profiler, DepthCapSwallowsMatchingPops) {
  Profiler prof;
  prof.session_begin("t", 0, 1);
  // Root occupies one slot, so kMaxDepth-1 pushes land; the rest are
  // refused and counted, and their pops must be swallowed symmetrically.
  const size_t pushes = Profiler::kMaxDepth + 72;
  for (size_t i = 0; i < pushes; ++i) prof.push("f", 1, 1);
  EXPECT_EQ(prof.truncated_frames(), pushes - (Profiler::kMaxDepth - 1));
  for (size_t i = 0; i < pushes; ++i) prof.pop(2, 1);
  prof.push("tail", 3, 1);  // Stack realigned: lands directly under the root.
  prof.pop(4, 1);
  prof.session_end(5);

  const FoldedProfile p = prof.snapshot();
  EXPECT_EQ(p.stacks.at("t;[S];tail").cycles, 1u);
  EXPECT_EQ(p.truncated_frames, prof.truncated_frames());
  EXPECT_EQ(folded_sum(p), p.total_cycles);
}

TEST(Profiler, ContextSwitchBanksPerProcessUserStacks) {
  Profiler prof;
  prof.session_begin("t", 0, 0);
  prof.on_call(0x1000, 1, 0);       // pid 0 (initial mm): enter fn_a.
  prof.on_context_switch(7, 10, 0); // Switch to pid 7: fresh U stack.
  prof.on_call(0x2000, 11, 0);      // pid 7: enter fn_b.
  prof.on_context_switch(0, 20, 0); // Back to pid 0: fn_a must be restored.
  prof.on_ret(25, 0);               // Returns from fn_a, not fn_b.
  prof.session_end(30);
  prof.add_symbol(0x1000, "fn_a");
  prof.add_symbol(0x2000, "fn_b");

  const FoldedProfile p = prof.snapshot();
  // fn_b never nests under fn_a: the switch banked pid 0's stack.
  EXPECT_EQ(p.stacks.count("t;[U];fn_a;fn_b"), 0u);
  EXPECT_EQ(p.stacks.at("t;[U];fn_a").cycles, 9u + 5u);   // [1,10) + [20,25).
  EXPECT_EQ(p.stacks.at("t;[U];fn_b").cycles, 9u);        // [11,20).
  EXPECT_EQ(folded_sum(p), p.total_cycles);
}

TEST(Profiler, FrameNamesAreSanitizedForTheFoldedForm) {
  Profiler prof;
  prof.session_begin("my label", 0, 1);
  prof.push("weird;name with\tstuff", 1, 1);
  prof.pop(2, 1);
  prof.session_end(3);
  const FoldedProfile p = prof.snapshot();
  EXPECT_EQ(p.stacks.count("my_label;[S];weird_name_with_stuff"), 1u);
}

u64 sub_cycles(const CycleProfile& p, Subsystem s) {
  return p.self_cycles[static_cast<size_t>(s)];
}

TEST(CycleProfile, NestedFramesAttributeSelfCycles) {
  Profiler prof;
  prof.session_begin("run", 0, 1);
  prof.push("syscall", Subsystem::kSyscall, 10, 1);
  prof.push("ptw", Subsystem::kPtw, 20, 1);
  prof.pop(30, 1);
  prof.pop(40, 1);
  prof.session_end(50);

  const CycleProfile p = prof.cycle_profile();
  EXPECT_EQ(p.total_cycles, 50u);
  // [0,10) and [40,50) have no open frame; syscall is innermost during
  // [10,20) and [30,40); ptw during [20,30).
  EXPECT_EQ(sub_cycles(p, Subsystem::kOther), 20u);
  EXPECT_EQ(sub_cycles(p, Subsystem::kSyscall), 20u);
  EXPECT_EQ(sub_cycles(p, Subsystem::kPtw), 10u);
  EXPECT_EQ(p.attributed(), p.total_cycles);
}

TEST(CycleProfile, PrivilegeCyclesSumToTotal) {
  Profiler prof;
  prof.session_begin("run", 0, 3);
  prof.push("trap", Subsystem::kTrap, 5, /*priv=*/0);  // M until 5.
  prof.pop(25, /*priv=*/1);                            // U-priv frame.
  prof.session_end(40);
  const CycleProfile p = prof.cycle_profile();
  u64 sum = 0;
  for (const u64 c : p.priv_cycles) sum += c;
  EXPECT_EQ(sum, p.total_cycles);
  EXPECT_EQ(p.total_cycles, 40u);
  // Each interval goes to the privilege that was current when it started.
  EXPECT_EQ(p.priv_cycles[3], 5u);
  EXPECT_EQ(p.priv_cycles[0], 20u);
  EXPECT_EQ(p.priv_cycles[1], 15u);
}

TEST(CycleProfile, AttributionExactDespiteRingDrops) {
  EventRing& ring = enable_tracing(1);  // Retains a single event.
  Profiler& prof = enable_profiling();
  ring.session_begin();
  prof.session_begin("run", 0, 1);
  struct Clock {
    u64 c = 0;
    u64 cycles() const { return c; }
    u64 instret() const { return 0; }
    int priv() const { return 1; }
  } clock;
  for (u64 t = 0; t < 100; t += 10) {
    clock.c = t;
    ScopedSpan<Clock> span(clock, Subsystem::kToken, "t");
    clock.c = t + 5;
  }
  prof.session_end(100);
  EXPECT_EQ(ring.events().size(), 1u);
  EXPECT_GT(ring.dropped(), 0u);
  const CycleProfile p = prof.cycle_profile();
  EXPECT_EQ(sub_cycles(p, Subsystem::kToken), 50u);
  EXPECT_EQ(sub_cycles(p, Subsystem::kOther), 50u);
  EXPECT_EQ(p.attributed(), 100u);
  disable_profiling();
  disable_tracing();
}

TEST(CycleProfile, FramesOutsideSessionAreNotAttributed) {
  Profiler prof;
  prof.push("boot", Subsystem::kSyscall, 100, 3);
  prof.pop(200, 3);
  const CycleProfile p = prof.cycle_profile();
  EXPECT_EQ(p.total_cycles, 0u);
  EXPECT_EQ(p.attributed(), 0u);
}

TEST(CycleProfile, SessionsAccumulateAndRebaseTheMark) {
  Profiler prof;
  prof.session_begin("run", 0, 3);
  prof.session_end(30);
  // A second machine's clock restarts at zero; total must not underflow.
  prof.session_begin("run", 0, 3);
  prof.session_end(70);
  const CycleProfile p = prof.cycle_profile();
  EXPECT_EQ(p.total_cycles, 100u);
  EXPECT_EQ(p.attributed(), 100u);
}

TEST(CycleProfile, UntaggedFramesInheritTheirParentsSubsystem) {
  struct Clock {
    u64 c = 0;
    u8 p = 0;
    u64 cycles() const { return c; }
    u64 instret() const { return 0; }
    u8 priv() const { return p; }
  } clock;
  Profiler& prof = enable_profiling();
  prof.session_begin("run", 0, 0);
  // A guest call under [U]: kOther, U-mode.
  prof.on_call(0x1000, 10, 0);
  prof.on_ret(30, 0);
  clock.c = 30;
  clock.p = 1;
  {
    ScopedSpan<Clock> span(clock, Subsystem::kSyscall, "syscall");
    clock.c = 40;
    {
      // A mediation marker under the syscall span: kSyscall, S-mode.
      ProfScope<Clock> marker(clock, "copy_mm");
      clock.c = 100;
    }
    // A walk inside the syscall whose verifier tail inherits kPtw.
    prof.push("ptw", Subsystem::kPtw, 100, 1);
    prof.push("ptw_verify", 110, 1);
    prof.pop(150, 1);
    prof.pop(150, 1);
    clock.c = 160;
  }
  prof.session_end(160);

  const CycleProfile p = prof.cycle_profile();
  EXPECT_EQ(p.total_cycles, 160u);
  EXPECT_EQ(sub_cycles(p, Subsystem::kOther), 30u);    // [U] root + guest call.
  EXPECT_EQ(sub_cycles(p, Subsystem::kSyscall), 80u);  // 10 own + 60 copy_mm + 10.
  EXPECT_EQ(sub_cycles(p, Subsystem::kPtw), 50u);      // 10 ptw + 40 ptw_verify.
  EXPECT_EQ(p.priv_cycles[0], 30u);
  EXPECT_EQ(p.priv_cycles[1], 130u);
  EXPECT_EQ(p.attributed(), p.total_cycles);
  disable_profiling();
}

TEST(FoldedProfile, MergeIsCommutativeAndSumsByKey) {
  FoldedProfile a;
  a.stacks["run;[S];x"] = {10, 1};
  a.stacks["run;[S];y"] = {5, 2};
  a.total_cycles = 15;
  FoldedProfile b;
  b.stacks["run;[S];x"] = {3, 1};
  b.stacks["run;[S];z"] = {7, 1};
  b.total_cycles = 10;
  b.truncated_frames = 2;

  FoldedProfile ab = a, ba = b;
  merge_folded(ab, b);
  merge_folded(ba, a);
  EXPECT_EQ(profile_json(ab), profile_json(ba));
  EXPECT_EQ(ab.stacks.at("run;[S];x").cycles, 13u);
  EXPECT_EQ(ab.total_cycles, 25u);
  EXPECT_EQ(ab.truncated_frames, 2u);
}

TEST(FoldedProfile, FilterLabelMatchesWholeFirstFrameOnly) {
  FoldedProfile p;
  p.stacks["cfi_ptstore;[S];a"] = {10, 1};
  p.stacks["cfi_ptstore_noadj;[S];a"] = {20, 1};
  p.total_cycles = 30;
  const FoldedProfile f = p.filter_label("cfi_ptstore");
  EXPECT_EQ(f.stacks.size(), 1u);
  EXPECT_EQ(f.total_cycles, 10u);
  EXPECT_EQ(f.stacks.count("cfi_ptstore;[S];a"), 1u);
}

TEST(FoldedProfile, FunctionTableAggregatesSelfAndInclusive) {
  FoldedProfile p;
  p.stacks["run;[S]"] = {5, 1};
  p.stacks["run;[S];h"] = {10, 3};
  p.stacks["run;[S];h;leaf"] = {20, 7};
  p.total_cycles = 35;

  const std::vector<FunctionRow> rows = function_table(p);
  ASSERT_FALSE(rows.empty());
  EXPECT_EQ(rows[0].name, "leaf");  // Ranked by self cycles.
  for (const FunctionRow& r : rows) {
    if (r.name == "h") {
      EXPECT_EQ(r.self_cycles, 10u);
      EXPECT_EQ(r.incl_cycles, 30u);  // Own self + leaf's.
      EXPECT_EQ(r.calls, 3u);
    }
  }
  const std::vector<CallEdge> edges = call_edges(p);
  ASSERT_FALSE(edges.empty());
  EXPECT_EQ(edges[0].caller, "h");
  EXPECT_EQ(edges[0].callee, "leaf");
  EXPECT_EQ(edges[0].cycles, 20u);
}

TEST(ProfileDiff, RanksDeltasAndBoundsUnattributedShare) {
  FoldedProfile a;
  a.stacks["run;[S]"] = {100, 1};
  a.stacks["run;[S];handler"] = {900, 10};
  a.total_cycles = 1000;
  FoldedProfile b;
  b.stacks["run;[S]"] = {150, 1};
  b.stacks["run;[S];handler"] = {1400, 10};
  b.stacks["run;[S];handler;ptauth.mac_sign"] = {450, 50};
  b.total_cycles = 2000;

  const ProfileDiff d = diff_profiles(a, b);
  EXPECT_EQ(d.total_delta, 1000);
  // Only the [S] root's +50 is unattributed: 95% explained by named frames.
  EXPECT_DOUBLE_EQ(d.attributed_pct, 95.0);
  ASSERT_GE(d.rows.size(), 3u);
  EXPECT_EQ(d.rows[0].name, "handler");
  EXPECT_EQ(d.rows[0].delta, 500);
  EXPECT_EQ(d.rows[1].name, "ptauth.mac_sign");
  EXPECT_EQ(d.rows[1].delta, 450);

  // Identical profiles: no delta, fully attributed by definition.
  const ProfileDiff same = diff_profiles(a, a);
  EXPECT_EQ(same.total_delta, 0);
  EXPECT_DOUBLE_EQ(same.attributed_pct, 100.0);
}

TEST(ProfileDiff, JsonCarriesExactSignedDeltas) {
  FoldedProfile a, b;
  a.stacks["run;[S];f"] = {9007199254740997ull, 1};  // > 2^53: %.6g would lie.
  a.total_cycles = 9007199254740997ull;
  b.total_cycles = 0;
  const ProfileDiff d = diff_profiles(a, b);
  std::ostringstream os;
  write_diff_json(os, d, "a", "b");
  EXPECT_NE(os.str().find("-9007199254740997"), std::string::npos);
  EXPECT_NE(os.str().find("\"schema\":\"ptstore.profile_diff.v1\""),
            std::string::npos);
}

TEST(FoldedProfile, JsonRoundTripsExactly) {
  FoldedProfile p;
  p.stacks["run;[S];a"] = {123, 4};
  p.stacks["run;[U];guest_0x1000"] = {7, 1};
  p.total_cycles = 130;
  p.truncated_frames = 3;

  const std::optional<FoldedProfile> back = parse_profile_json(profile_json(p));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(profile_json(*back), profile_json(p));
  EXPECT_EQ(back->total_cycles, 130u);
  EXPECT_EQ(back->truncated_frames, 3u);

  EXPECT_FALSE(parse_profile_json("{}").has_value());
  EXPECT_FALSE(parse_profile_json("{\"schema\":\"other.v1\"}").has_value());
}

TEST(FoldedProfile, WriteFoldedIsFlamegraphPlCompatible) {
  FoldedProfile p;
  p.stacks["run;[S];a;b"] = {42, 1};
  std::ostringstream os;
  write_folded(os, p);
  EXPECT_EQ(os.str(), "run;[S];a;b 42\n");
}

TEST(Flamegraph, SvgIsDeterministicAndEscapesNames) {
  FoldedProfile p;
  p.stacks["run;[S];a<b>&c"] = {60, 1};
  p.stacks["run;[S];other"] = {40, 1};
  p.total_cycles = 100;

  const std::string svg1 = flamegraph_svg(p);
  const std::string svg2 = flamegraph_svg(p);
  EXPECT_EQ(svg1, svg2) << "SVG bytes must be a pure function of the profile";
  EXPECT_NE(svg1.find("<svg"), std::string::npos);
  EXPECT_NE(svg1.find("a&lt;b&gt;&amp;c"), std::string::npos);
  EXPECT_EQ(svg1.find("a<b>"), std::string::npos);
}

}  // namespace
}  // namespace ptstore::telemetry
