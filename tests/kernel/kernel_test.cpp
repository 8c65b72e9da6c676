// Kernel boot, zones, secure-region adjustment, syscalls, and SBI behaviour.
#include "kernel/kernel.h"

#include <gtest/gtest.h>

#include "kernel/system.h"

namespace ptstore {
namespace {

TEST(KernelBoot, PtStoreLayout) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  const SecureRegion sr = sys.sbi().sr_get();
  EXPECT_TRUE(sys.sbi().initialized());
  EXPECT_EQ(sr.size(), MiB(64));
  EXPECT_EQ(sr.end, sys.mem().dram_end());
  // The kernel root lives in the secure region and satp carries the S-bit.
  EXPECT_TRUE(sr.contains(sys.kernel().kernel_root(), kPageSize));
  EXPECT_TRUE(isa::satp::secure_check(sys.core().mmu().satp()));
  // The PTStore zone is exactly the secure region.
  EXPECT_EQ(sys.kernel().pages().ptstore().base(), sr.base);
  EXPECT_EQ(sys.kernel().pages().ptstore().end(), sr.end);
}

TEST(KernelBoot, BaselineLayout) {
  SystemConfig cfg = SystemConfig::baseline();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  EXPECT_FALSE(sys.sbi().initialized());
  EXPECT_FALSE(isa::satp::secure_check(sys.core().mmu().satp()));
  EXPECT_EQ(sys.kernel().pages().ptstore().total_pages(), 0u);
}

TEST(KernelBoot, TooSmallDramFailsCleanly) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(64);  // Cannot hold a 64 MiB region + kernel.
  EXPECT_THROW(System sys(cfg), std::runtime_error);
}

TEST(KernelBoot, KernelDirectMapWorks) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  // A kernel store through the direct map lands at the same PA.
  const PhysAddr pa = kDramBase + MiB(100);
  ASSERT_TRUE(sys.kernel().kmem().sd(pa, 0x1234).ok);
  EXPECT_EQ(sys.mem().read_u64(pa), 0x1234u);
}

TEST(KernelAdjust, GrowsOnPtStoreZoneExhaustion) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  cfg.kernel.secure_region_init = MiB(16);
  cfg.kernel.adjustment_chunk_pages = 256;  // 1 MiB chunks.
  System sys(cfg);
  Kernel& k = sys.kernel();
  const PhysAddr base_before = sys.sbi().sr_get().base;

  // Exhaust the PTStore zone: allocate pages until an adjustment fires.
  std::vector<PhysAddr> pages;
  while (k.adjustments() == 0) {
    const auto p = k.pages().alloc_pages(Gfp::kPtStore, 0);
    ASSERT_TRUE(p.has_value()) << "zone exhausted without adjustment";
    pages.push_back(*p);
    ASSERT_LT(pages.size(), MiB(64) / kPageSize) << "no adjustment triggered";
  }
  const SecureRegion sr = sys.sbi().sr_get();
  EXPECT_LT(sr.base, base_before);
  EXPECT_EQ(base_before - sr.base, cfg.kernel.adjustment_chunk_pages * kPageSize);
  // The PMP boundary moved with the zone: new pages are secure.
  const auto p = k.pages().alloc_pages(Gfp::kPtStore, 0);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(sys.core().pmp().is_secure(*p, kPageSize));
  EXPECT_GE(k.counters().value_of("kernel.sr_adjustments"), 1u);
}

TEST(KernelAdjust, DisabledAdjustmentFailsInstead) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  cfg.kernel.secure_region_init = MiB(16);
  cfg.kernel.allow_adjustment = false;
  System sys(cfg);
  Kernel& k = sys.kernel();
  std::vector<PhysAddr> pages;
  for (;;) {
    const auto p = k.pages().alloc_pages(Gfp::kPtStore, 0);
    if (!p) break;
    pages.push_back(*p);
  }
  EXPECT_EQ(k.adjustments(), 0u);
  EXPECT_LE(pages.size(), MiB(16) / kPageSize);
}

TEST(KernelAdjust, DonatedPagesAreScrubbed) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  cfg.kernel.secure_region_init = MiB(16);
  cfg.kernel.adjustment_chunk_pages = 256;
  System sys(cfg);
  Kernel& k = sys.kernel();
  // Dirty the page just below the boundary (as freed user data would).
  const PhysAddr below = sys.sbi().sr_get().base - kPageSize;
  sys.mem().write_u64(below + 128, 0xD1D1D1D1);
  while (k.adjustments() == 0) {
    const auto p = k.pages().alloc_pages(Gfp::kPtStore, 0);
    ASSERT_TRUE(p.has_value());
  }
  ASSERT_TRUE(sys.sbi().sr_get().contains(below, kPageSize));
  EXPECT_TRUE(sys.mem().is_zero(below, kPageSize));  // Scrubbed on donation.
}

TEST(KernelSyscall, AllPlainSyscallsSucceed) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  Process& p = sys.init();
  for (Sys s : {Sys::kNull, Sys::kRead, Sys::kWrite, Sys::kStat, Sys::kFstat,
                Sys::kOpenClose, Sys::kSelect, Sys::kSigInstall, Sys::kSigHandle,
                Sys::kPipe, Sys::kBrk, Sys::kGetpid, Sys::kSendRecv,
                Sys::kAcceptClose, Sys::kMmap, Sys::kFork, Sys::kForkExec}) {
    const Cycles before = sys.cycles();
    EXPECT_TRUE(sys.kernel().syscall(p, s)) << to_string(s);
    EXPECT_GT(sys.cycles(), before) << to_string(s);
  }
  // Process population unchanged after fork/exec syscalls (children reaped).
  EXPECT_EQ(sys.kernel().processes().live_count(), 1u);
}

TEST(KernelSyscall, CostOrderingIsSane) {
  // fork > open/close > null, as in LMBench.
  SystemConfig cfg = SystemConfig::cfi();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  Process& p = sys.init();
  auto cost_of = [&](Sys s) {
    const Cycles before = sys.cycles();
    EXPECT_TRUE(sys.kernel().syscall(p, s));
    return sys.cycles() - before;
  };
  const Cycles null_c = cost_of(Sys::kNull);
  const Cycles open_c = cost_of(Sys::kOpenClose);
  const Cycles fork_c = cost_of(Sys::kFork);
  EXPECT_LT(null_c, open_c);
  EXPECT_LT(open_c, fork_c);
}

TEST(KernelSbi, BoundaryValidation) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  SbiMonitor& sbi = sys.sbi();
  EXPECT_EQ(sbi.sr_init(kDramBase, MiB(64)), SbiStatus::kAlreadyAvailable);
  EXPECT_EQ(sbi.sr_set_boundary(kDramBase + 123), SbiStatus::kInvalidParam);
  EXPECT_EQ(sbi.sr_set_boundary(sys.mem().dram_end()), SbiStatus::kInvalidParam);
  const PhysAddr nb = sys.sbi().sr_get().base - MiB(1);
  EXPECT_EQ(sbi.sr_set_boundary(nb), SbiStatus::kOk);
  EXPECT_EQ(sys.sbi().sr_get().base, nb);
}

TEST(KernelSbi, UninitializedMonitorRejectsBoundary) {
  PhysMem mem(kDramBase, MiB(64));
  CoreConfig ccfg;
  Core core(mem, ccfg);
  SbiMonitor sbi(core);
  EXPECT_EQ(sbi.sr_set_boundary(kDramBase + MiB(32)), SbiStatus::kDenied);
  EXPECT_EQ(sbi.sr_init(kDramBase + MiB(32), MiB(16)), SbiStatus::kInvalidParam);
  EXPECT_EQ(sbi.sr_init(kDramBase + MiB(48), MiB(16)), SbiStatus::kOk);
}

TEST(KernelStats, SyscallsAndTrapsCounted) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  for (int i = 0; i < 5; ++i) sys.kernel().syscall(sys.init(), Sys::kNull);
  EXPECT_EQ(sys.kernel().counters().value_of("kernel.syscalls"), 5u);
  EXPECT_GE(sys.kernel().counters().value_of("kernel.traps"), 5u);
}

}  // namespace
}  // namespace ptstore
