// The benchmark's own tests: input determinism, the host reference against
// the interpreter, and the metric catalog's naming rules.
#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "gen.h"
#include "kernel/guest.h"
#include "kernel/system.h"
#include "workloads.h"

namespace perfbench {
namespace {

using ptstore::GuestRunner;
using ptstore::kUserSpaceBase;
using ptstore::MiB;

constexpr VirtAddr kEntry = kUserSpaceBase + MiB(8);

TEST(PerfbenchGen, SameSeedGivesIdenticalInputs) {
  for (unsigned slot = 0; slot < kGuestPrograms; ++slot) {
    const GuestProgram a = build_guest_program(guest_params(7, slot), kEntry,
                                               GuestRunner::kHeapBase);
    const GuestProgram b = build_guest_program(guest_params(7, slot), kEntry,
                                               GuestRunner::kHeapBase);
    EXPECT_EQ(a.code, b.code);
    EXPECT_EQ(a.expected_exit, b.expected_exit);
    EXPECT_EQ(a.expected_insts, b.expected_insts);
  }
  EXPECT_EQ(serialize(make_churn_stream(7, 2000)), serialize(make_churn_stream(7, 2000)));
}

TEST(PerfbenchGen, DifferentSeedGivesDifferentInputs) {
  for (unsigned slot = 0; slot < kGuestPrograms; ++slot) {
    const GuestProgram a = build_guest_program(guest_params(7, slot), kEntry,
                                               GuestRunner::kHeapBase);
    const GuestProgram b = build_guest_program(guest_params(8, slot), kEntry,
                                               GuestRunner::kHeapBase);
    EXPECT_NE(a.code, b.code);
    EXPECT_NE(a.expected_exit, b.expected_exit);
  }
  EXPECT_NE(serialize(make_churn_stream(7, 2000)), serialize(make_churn_stream(8, 2000)));
}

TEST(PerfbenchGen, ChurnStreamIsBalanced) {
  const ChurnStream s = make_churn_stream(3, 6000);
  std::set<u32> live = {0};
  for (const ChurnOp& op : s.ops) {
    ASSERT_TRUE(live.count(op.slot)) << to_string(op.kind) << " on a dead slot";
    if (op.kind == ChurnOp::Kind::kFork) live.insert(op.child);
    if (op.kind == ChurnOp::Kind::kExit) live.erase(op.slot);
  }
  EXPECT_EQ(live, std::set<u32>{0});  // Teardown leaves only init.
  EXPECT_GT(s.peak_live, 100u);
}

TEST(PerfbenchGen, ChurnStreamFollowsTheMeasuredMix) {
  // Direct-op shares of the figure workloads (perfbench --op-mix).
  const std::map<ChurnOp::Kind, double> want = {
      {ChurnOp::Kind::kFork, 0.1000},    {ChurnOp::Kind::kExit, 0.1000},
      {ChurnOp::Kind::kSwitch, 0.1581},  {ChurnOp::Kind::kSyscall, 0.4061},
      {ChurnOp::Kind::kFaultWrite, 0.2191}, {ChurnOp::Kind::kReadMapped, 0.0166}};
  for (const u64 seed : {1, 5}) {
    const ChurnStream s = make_churn_stream(seed, 24000);
    // mmap/munmap are not planned: they come in where a fault needs a region.
    std::map<ChurnOp::Kind, double> got;
    double planned = 0;
    for (const ChurnOp& op : s.ops) {
      got[op.kind] += 1;
      if (op.kind != ChurnOp::Kind::kMmap && op.kind != ChurnOp::Kind::kMunmap) ++planned;
    }
    for (const auto& [kind, share] : want) {
      EXPECT_NEAR(got[kind] / planned, share, 0.01) << to_string(kind) << " seed " << seed;
    }
    // A process maps one region before its first fault and rarely fills it.
    EXPECT_LE(got[ChurnOp::Kind::kMmap], got[ChurnOp::Kind::kFork]);
    EXPECT_LT(got[ChurnOp::Kind::kMunmap] / planned, 0.001);
    EXPECT_GT(s.peak_live, 1000u);
  }
}

/// Run `g` to completion on a fresh machine; returns {exit code, interpreted
/// instructions} where the count excludes re-dispatches after demand faults.
std::pair<u64, u64> interpret(const GuestProgram& g) {
  auto sys = ptstore::System::create(ptstore::SystemConfig::cfi_ptstore());
  EXPECT_TRUE(sys);
  ptstore::System& s = *sys.value();
  ptstore::Process* p = s.kernel().processes().fork(s.init());
  GuestRunner runner(s.kernel());
  EXPECT_TRUE(runner.load_program(*p, kEntry, g.code));
  u64 dispatched = 0;
  s.core().set_trace_hook(
      [&dispatched](const ptstore::Core&, u64, const ptstore::isa::Inst&) { ++dispatched; });
  const size_t pages = p->user_pages.size();
  const ptstore::GuestResult r = runner.run(*p, kEntry, 100'000'000);
  EXPECT_TRUE(r.exited);
  return {r.exit_code, dispatched - (p->user_pages.size() - pages)};
}

TEST(PerfbenchGen, HostReferenceMatchesInterpreterOnHandCheckedProgram) {
  // Two data words, three iterations: small enough to follow by hand.
  GuestParams p;
  p.footprint_bytes = 16;
  p.iterations = 3;
  p.x0 = 5;
  p.mul = 3;
  p.inc = 1;
  p.idx_shift = 1;
  p.branch_bit = 3;
  const GuestProgram g = build_guest_program(p, kEntry, GuestRunner::kHeapBase);

  // init: x = 16, 49 -> a = {16, 49}. Each iteration (x = 3x + 1):
  //  k=3: x=148 hi(x*3)=0 idx=(148>>1)&1=0 v=16 bit3=0 (even):
  //       acc = 0 - 2 = -2; acc ^= 16/3 = 5 -> -2^5; a[0] = 16 + acc
  u64 a[2] = {16, 49};
  u64 x = 49;
  u64 acc = 0;
  u64 odd = 0;
  for (u64 k = 3; k != 0; --k) {
    x = 3 * x + 1;
    u64& slot = a[(x >> 1) & 1];
    const u64 v = slot;
    if (v & 8) {
      acc += v ^ k;
      ++odd;
    } else {
      acc -= v >> 3;
      acc ^= v / (k | 1);
    }
    slot = v + acc;
  }
  EXPECT_EQ(g.expected_exit, acc);
  // Block sizes of the generated loop: prologue li's (base is a 64-bit
  // constant: li 0x10 + 3 x (slli, ori) = 7 words; the other seven li's are
  // single addi's) = 14, init body 7 per word, li s2 = 1, loop head 11,
  // odd path 3, even path 5, join 4, exit 3.
  const u64 hand = 14 + 2 * 7 + 1 + 3 * (11 + 4) + odd * 3 + (3 - odd) * 5 + 3;
  EXPECT_EQ(g.expected_insts, hand);

  const auto [exit_code, insts] = interpret(g);
  EXPECT_EQ(exit_code, g.expected_exit);
  EXPECT_EQ(insts, g.expected_insts);
}

TEST(PerfbenchGen, HostReferenceMatchesInterpreterOnGeneratedPrograms) {
  for (unsigned slot = 0; slot < 2; ++slot) {
    GuestParams p = guest_params(11, slot);
    p.iterations = 5000;  // Same shape, shorter run.
    const GuestProgram g = build_guest_program(p, kEntry, GuestRunner::kHeapBase);
    const auto [exit_code, insts] = interpret(g);
    EXPECT_EQ(exit_code, g.expected_exit);
    EXPECT_EQ(insts, g.expected_insts);
  }
}

TEST(PerfbenchMetrics, NamesAreWellFormedAndUnique) {
  const std::regex ok("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  std::set<std::string> seen;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      EXPECT_TRUE(std::regex_match(m.name, ok)) << m.name;
      EXPECT_TRUE(seen.insert(m.name).second) << "duplicate " << m.name;
      EXPECT_TRUE(m.better == "higher" || m.better == "lower") << m.name;
    }
  }
}

TEST(PerfbenchMetrics, EveryRatioHasItsBase) {
  std::set<std::string> names;
  for (const MetricSpec& m : per_layer_metrics()) names.insert(m.name);
  for (const MetricSpec& m : per_layer_metrics()) {
    if (m.unit != "ratio") continue;
    EXPECT_TRUE(names.count(m.name + ".base")) << m.name << " has no base";
  }
}

TEST(PerfbenchMetrics, BenchmarkJsonListsTheCatalog) {
  std::ifstream f(PERFBENCH_JSON);
  ASSERT_TRUE(f) << PERFBENCH_JSON;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string json = ss.str();
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& m : *list) {
      const std::string entry = "{\"name\": \"" + m.name + "\", \"unit\": \"" + m.unit +
                                "\", \"better\": \"" + m.better + "\"";
      EXPECT_NE(json.find(entry), std::string::npos) << m.name;
    }
  }
  for (const std::string& w : workload_names()) {
    EXPECT_NE(json.find("\"name\": \"" + w + "\""), std::string::npos) << w;
  }
}

}  // namespace
}  // namespace perfbench
