// Full-system checkpoint round-trips (the campaign fleet's fork substrate):
// a machine forked from a post-boot checkpoint must be indistinguishable —
// in telemetry counters and memory contents — from the master continuing
// past the same checkpoint, and its microarchitecture must come up cold.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "harness/support.h"
#include "kernel/protocol.h"
#include "kernel/system.h"

namespace ptstore {
namespace {

SystemConfig test_config() {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(128);
  return cfg;
}

/// A fixed, moderately rich protocol workload: process churn, PT growth,
/// address-space switches, secure-region growth. Everything the campaign
/// generators do, minus the RNG.
void run_fixed_ops(System& sys) {
  ProtocolOps proto(sys.kernel());
  Process& init = sys.init();
  std::vector<u64> children;
  for (int i = 0; i < 6; ++i) {
    const ProtoResult r = proto.copy_mm(init);
    ASSERT_EQ(r.status, ProtoStatus::kOk);
    children.push_back(r.pid);
  }
  for (size_t i = 0; i < children.size(); ++i) {
    Process* child = sys.kernel().processes().find(children[i]);
    ASSERT_NE(child, nullptr);
    const VirtAddr va = kUserSpaceBase + GiB(1) + i * MiB(2);
    EXPECT_EQ(proto.alloc_pt(*child, va).status, ProtoStatus::kOk);
    EXPECT_EQ(proto.switch_mm(*child).status, ProtoStatus::kOk);
    if (i % 2 == 0) {
      EXPECT_EQ(proto.free_pt(*child, va).status, ProtoStatus::kOk);
    }
  }
  EXPECT_EQ(proto.grow(1).status, ProtoStatus::kOk);
  for (size_t i = 0; i + 1 < children.size(); i += 2) {
    Process* child = sys.kernel().processes().find(children[i]);
    ASSERT_NE(child, nullptr);
    EXPECT_EQ(proto.exit_mm(*child).status, ProtoStatus::kOk);
  }
  EXPECT_EQ(proto.switch_mm(init).status, ProtoStatus::kOk);
}

TEST(Checkpoint, RoundTripMatchesContinuedExecution) {
  auto master = System::create(test_config());
  ASSERT_TRUE(master.ok()) << master.error();
  System& a = *master.value();
  const SystemCheckpoint ck = a.checkpoint();

  // Path A: the master continues past the checkpoint.
  a.clear_stats();
  run_fixed_ops(a);
  const std::map<std::string, u64> counters_a = a.report().counters();
  const u64 digest_a = a.mem().content_digest();

  // Path B: a fork restores the checkpoint and runs the same ops.
  auto fork = System::create_from(ck);
  ASSERT_TRUE(fork.ok()) << fork.error();
  System& b = *fork.value();
  b.clear_stats();
  run_fixed_ops(b);
  const std::map<std::string, u64> counters_b = b.report().counters();
  const u64 digest_b = b.mem().content_digest();

  EXPECT_EQ(counters_a, counters_b);
  EXPECT_EQ(digest_a, digest_b);
}

TEST(Checkpoint, ForkSkipsKernelBoot) {
  auto master = System::create(test_config());
  ASSERT_TRUE(master.ok()) << master.error();
  const SystemCheckpoint ck = master.value()->checkpoint();

  // Untouched counters are simply absent from the map, hence the defaulted
  // lookup rather than map::at.
  auto counter = [](const System& sys, const char* name) -> u64 {
    const auto counters = sys.report().counters();
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  };
  EXPECT_EQ(counter(*master.value(), "kernel.booted"), 1u);
  EXPECT_EQ(counter(*master.value(), "kernel.checkpoint_restores"), 0u);

  auto fork = System::create_from(ck);
  ASSERT_TRUE(fork.ok()) << fork.error();
  EXPECT_EQ(counter(*fork.value(), "kernel.booted"), 0u)
      << "a checkpoint fork must not re-run kernel boot";
  EXPECT_EQ(counter(*fork.value(), "kernel.checkpoint_restores"), 1u);
}

TEST(Checkpoint, MicroarchRestoresCold) {
  auto master = System::create(test_config());
  ASSERT_TRUE(master.ok()) << master.error();
  System& sys = *master.value();

  // Warm the machine: real user-mode execution populates the TLBs and the
  // decoded basic-block cache.
  Process* victim = attacks::setup_victim(sys);
  ASSERT_NE(victim, nullptr);
  ASSERT_TRUE(attacks::user_probe(sys.core(), attacks::kVictimVa, true).ok);
  EXPECT_GT(sys.core().mmu().dtlb().occupancy(), 0u);

  const SystemCheckpoint ck = sys.checkpoint();
  auto fork = System::create_from(ck);
  ASSERT_TRUE(fork.ok()) << fork.error();
  Core& cold = fork.value()->core();
  EXPECT_EQ(cold.mmu().itlb().occupancy(), 0u);
  EXPECT_EQ(cold.mmu().dtlb().occupancy(), 0u);
  EXPECT_EQ(cold.bbcache().size(), 0u);

  // The quiesce inside checkpoint() leaves the master cold too — that is
  // what makes post-checkpoint and post-restore execution bit-identical.
  EXPECT_EQ(sys.core().mmu().dtlb().occupancy(), 0u);
  EXPECT_EQ(sys.core().bbcache().size(), 0u);
}

TEST(Checkpoint, RepeatedForksAreIdentical) {
  auto master = System::create(test_config());
  ASSERT_TRUE(master.ok()) << master.error();
  const SystemCheckpoint ck = master.value()->checkpoint();

  auto digest_after_ops = [&]() {
    auto fork = System::create_from(ck);
    EXPECT_TRUE(fork.ok()) << fork.error();
    run_fixed_ops(*fork.value());
    return fork.value()->mem().content_digest();
  };
  const u64 first = digest_after_ops();
  EXPECT_EQ(digest_after_ops(), first);
  EXPECT_EQ(digest_after_ops(), first);
}

TEST(Checkpoint, CheckpointIsStable) {
  // Checkpointing is observation, not perturbation: a second checkpoint
  // taken immediately after the first captures identical frames and kernel
  // state geometry.
  auto master = System::create(test_config());
  ASSERT_TRUE(master.ok()) << master.error();
  const SystemCheckpoint ck1 = master.value()->checkpoint();
  const SystemCheckpoint ck2 = master.value()->checkpoint();
  EXPECT_EQ(ck1.frames, ck2.frames);
  EXPECT_EQ(ck1.arch.pc, ck2.arch.pc);
  EXPECT_EQ(ck1.kernel.processes.current_pid, ck2.kernel.processes.current_pid);
}

TEST(Checkpoint, CreateFromRejectsUnbootedCheckpoint) {
  SystemCheckpoint empty;
  empty.config = test_config();
  const auto fork = System::create_from(empty);
  EXPECT_FALSE(fork.ok());
}

}  // namespace
}  // namespace ptstore
