// Cross-hart TLB-shootdown protocol tests: a multi-hart System must never
// let a remote hart observe a PTE downgrade through a stale TLB entry once
// the initiating kernel op has returned (the shootdown "ack" point), and
// retiring an address space must re-point every hart still running on it.
// The skip-IPI sabotage knob inverts each property deterministically — the
// seeded-race regressions that prove the tests can actually see the bug.
#include <gtest/gtest.h>

#include "attacks/support.h"
#include "kernel/protocol.h"
#include "kernel/system.h"
#include "mmu/pte.h"

namespace ptstore {
namespace {

constexpr VirtAddr kRaceVa = kUserSpaceBase + MiB(8);

SystemConfig smp_config(unsigned harts, bool skip_ipi = false) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(128);
  cfg.nharts = harts;
  cfg.kernel.skip_shootdown_ipi = skip_ipi;
  return cfg;
}

/// Fork a process, run it on hart 1, and fault kRaceVa in writable there —
/// hart 1's TLB now caches a writable translation.
Process* warm_remote_hart(System& sys) {
  Kernel& k = sys.kernel();
  Process* p = k.processes().fork(sys.init());
  if (p == nullptr) return nullptr;
  if (!k.processes().add_vma(*p, kRaceVa, kPageSize, pte::kR | pte::kW))
    return nullptr;
  k.set_active_hart(1);
  if (k.processes().switch_to(*p) != SwitchResult::kOk) return nullptr;
  if (!k.user_access(*p, kRaceVa, /*write=*/true)) return nullptr;
  k.set_active_hart(0);
  return p;
}

TEST(SmpBoot, SecondaryHartsComeUpSupervisedOnKernelRoot) {
  System sys(smp_config(2));
  ASSERT_EQ(sys.nharts(), 2u);
  EXPECT_EQ(sys.core(1).priv(), Privilege::kSupervisor);
  EXPECT_EQ(isa::satp::ppn(sys.core(1).mmu().satp()),
            sys.kernel().kernel_root() >> kPageShift);
  // The boot hart is hart 0 and stays the active one.
  EXPECT_EQ(sys.kernel().active_hart(), 0u);
  EXPECT_EQ(sys.core(0).hartid(), 0u);
  EXPECT_EQ(sys.core(1).hartid(), 1u);
}

// The ordering property of the shootdown protocol: once protect_vma (the
// initiator) has returned, the downgrade is globally visible — no hart's
// TLB may still honor the old writable entry. This is the stale-TLB
// regression for the targeted-sfence design: every invalidation path goes
// through Kernel::tlb_shootdown, never a local-only sfence.
TEST(SmpShootdown, DowngradeNeverObservableAfterAck) {
  System sys(smp_config(2));
  Process* p = warm_remote_hart(sys);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(sys.kernel().processes().protect_vma(*p, kRaceVa, kPageSize, pte::kR));
  for (unsigned h = 0; h < sys.nharts(); ++h) {
    const MemAccessResult w = attacks::user_probe(sys.core(h), kRaceVa, true);
    EXPECT_FALSE(w.ok) << "hart " << h << " kept a stale writable entry";
  }
  // Only the permission changed: hart 1 can still read the page.
  EXPECT_TRUE(attacks::user_probe(sys.core(1), kRaceVa, false).ok);
}

// The seeded race made reproducible: with the IPI leg sabotaged the exact
// same op sequence leaves hart 1's stale writable entry live, and the probe
// that MUST fault above now succeeds. Proves the shootdown (not some
// incidental flush) is what closes the race — and that the test could see
// the bug it guards against.
TEST(SmpShootdown, SkipIpiSabotageReproducesStaleWrite) {
  System sys(smp_config(2, /*skip_ipi=*/true));
  Process* p = warm_remote_hart(sys);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(sys.kernel().processes().protect_vma(*p, kRaceVa, kPageSize, pte::kR));
  // The initiator flushed locally, so hart 0 sees the downgrade...
  EXPECT_FALSE(attacks::user_probe(sys.core(0), kRaceVa, true).ok);
  // ...but hart 1 was never told: the stale writable entry breaches.
  EXPECT_TRUE(attacks::user_probe(sys.core(1), kRaceVa, true).ok)
      << "sabotaged kernel unexpectedly flushed the remote TLB";
}

// exit_mm on one hart must retire the address space everywhere: a remote
// hart still running on the dying root is re-pointed at the kernel root
// before the root's pages go back to the allocator (P2's concrete shape).
TEST(SmpShootdown, RetireMmRepointsRemoteHart) {
  System sys(smp_config(2));
  Kernel& k = sys.kernel();
  Process* p = warm_remote_hart(sys);
  ASSERT_NE(p, nullptr);
  ProtocolOps proto(k);
  ASSERT_TRUE(proto.exit_mm(*p).ok());
  EXPECT_EQ(isa::satp::ppn(sys.core(1).mmu().satp()),
            k.kernel_root() >> kPageShift)
      << "hart 1 still runs on a freed root";
}

TEST(SmpShootdown, SabotagedRetireLeavesRemoteSatpStale) {
  System sys(smp_config(2, /*skip_ipi=*/true));
  Kernel& k = sys.kernel();
  Process* p = warm_remote_hart(sys);
  ASSERT_NE(p, nullptr);
  const u64 old_root = k.processes().pcb_pgd(*p);
  ProtocolOps proto(k);
  ASSERT_TRUE(proto.exit_mm(*p).ok());
  EXPECT_EQ(isa::satp::ppn(sys.core(1).mmu().satp()), old_root >> kPageShift)
      << "sabotaged kernel unexpectedly re-pointed the remote hart";
}

// Shootdown accounting: cross-hart invalidations send one IPI per remote
// hart and are counted; a single-hart machine degenerates to the plain
// local sfence with both counters pinned at zero (the byte-identity gate
// for pre-SMP reports).
TEST(SmpShootdown, CountersTrackIpisAndStayZeroSingleHart) {
  {
    System sys(smp_config(2));
    Process* p = warm_remote_hart(sys);
    ASSERT_NE(p, nullptr);
    const u64 before = sys.kernel().ipis_sent();
    ASSERT_TRUE(
        sys.kernel().processes().protect_vma(*p, kRaceVa, kPageSize, pte::kR));
    EXPECT_GT(sys.kernel().shootdowns(), 0u);
    EXPECT_GT(sys.kernel().ipis_sent(), before);
  }
  {
    System sys(smp_config(1));
    Kernel& k = sys.kernel();
    Process* p = k.processes().fork(sys.init());
    ASSERT_NE(p, nullptr);
    ASSERT_TRUE(k.processes().add_vma(*p, kRaceVa, kPageSize, pte::kR | pte::kW));
    ASSERT_EQ(k.processes().switch_to(*p), SwitchResult::kOk);
    ASSERT_TRUE(k.user_access(*p, kRaceVa, true));
    ASSERT_TRUE(k.processes().protect_vma(*p, kRaceVa, kPageSize, pte::kR));
    EXPECT_EQ(k.shootdowns(), 0u);
    EXPECT_EQ(k.ipis_sent(), 0u);
  }
}

// System::clear_stats() zeroes every hart's counters, not only the boot
// hart's: after the warm/protect sequence hart 1 holds DTLB/L1D hits, walks
// and sfences, and none of them may survive the clear.
TEST(SmpStats, ClearStatsZeroesEveryHart) {
  System sys(smp_config(2));
  Process* p = warm_remote_hart(sys);
  ASSERT_NE(p, nullptr);
  ASSERT_TRUE(sys.kernel().processes().protect_vma(*p, kRaceVa, kPageSize, pte::kR));
  ASSERT_GT(sys.core(1).merged_stats().get("DTLB.hits"), 0u);
  ASSERT_GT(sys.core(1).merged_stats().get("mmu.walks"), 0u);

  sys.clear_stats();
  for (unsigned h = 0; h < sys.nharts(); ++h) {
    const StatSet s = sys.core(h).merged_stats();
    for (const auto& [name, value] : s.counters()) {
      if (name == "core.cycles" || name == "core.instret") continue;
      EXPECT_EQ(value, 0u) << "hart " << h << " kept " << name;
    }
  }
  EXPECT_EQ(sys.report().get("process.forks"), 0u);
  EXPECT_EQ(sys.report().get("kernel.booted"), 0u);
}

// Full-system checkpoints carry the secondary harts: a fork of a warmed
// 2-hart machine restores hart 1's satp (and thus the P2 scenarios replay
// on forked shard machines exactly as on the original).
TEST(SmpCheckpoint, SecondHartStateSurvivesForkRestore) {
  System sys(smp_config(2));
  Process* p = warm_remote_hart(sys);
  ASSERT_NE(p, nullptr);
  const u64 satp1 = sys.core(1).mmu().satp();
  const SystemCheckpoint ck = sys.checkpoint();
  auto forked = System::create_from(ck);
  ASSERT_TRUE(forked.ok()) << forked.error();
  ASSERT_EQ(forked.value()->nharts(), 2u);
  EXPECT_EQ(forked.value()->core(1).mmu().satp(), satp1);
  EXPECT_EQ(forked.value()->core(1).priv(), Privilege::kSupervisor);
}

}  // namespace
}  // namespace ptstore
