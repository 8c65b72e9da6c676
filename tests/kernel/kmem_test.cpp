// KernelMem accessor semantics: access kinds, cycle charging, panic
// behaviour, and the bulk fast paths' equivalence to the per-word loops.
#include "kernel/kmem.h"

#include <gtest/gtest.h>

#include "kernel/system.h"

namespace ptstore {
namespace {

// Reference per-word loops the bulk fast paths must match: zero / copy a
// whole page through the architectural access path, one sd.pt (or
// ld.pt + sd.pt) per 64-bit word.
KAccess pt_zero_page_loop(KernelMem& km, VirtAddr page_va) {
  for (u64 off = 0; off < kPageSize; off += 8) {
    const KAccess a = km.pt_sd(page_va + off, 0);
    if (!a.ok) return a;
  }
  return {true, isa::TrapCause::kNone, 0};
}

KAccess pt_copy_page_loop(KernelMem& km, VirtAddr dst_va, VirtAddr src_va) {
  for (u64 off = 0; off < kPageSize; off += 8) {
    const KAccess rd = km.pt_ld(src_va + off);
    if (!rd.ok) return rd;
    const KAccess wr = km.pt_sd(dst_va + off, rd.value);
    if (!wr.ok) return wr;
  }
  return {true, isa::TrapCause::kNone, 0};
}

class KmemTest : public ::testing::Test {
 protected:
  KmemTest() {
    SystemConfig cfg = SystemConfig::cfi_ptstore();
    cfg.dram_size = MiB(256);
    sys_ = std::make_unique<System>(cfg);
  }
  KernelMem& km() { return sys_->kernel().kmem(); }
  PhysAddr secure_page() { return sys_->sbi().sr_get().base + MiB(1); }
  PhysAddr normal_page() { return kDramBase + MiB(64); }
  std::unique_ptr<System> sys_;
};

TEST_F(KmemTest, RegularAccessesNormalMemory) {
  ASSERT_TRUE(km().sd(normal_page(), 0xABCD).ok);
  const KAccess r = km().ld(normal_page());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xABCDu);
}

TEST_F(KmemTest, AccessKindMatrix) {
  // regular -> secure: fault; pt -> secure: ok; pt -> normal: fault.
  EXPECT_FALSE(km().sd(secure_page(), 1).ok);
  EXPECT_FALSE(km().ld(secure_page()).ok);
  EXPECT_TRUE(km().pt_sd(secure_page(), 1).ok);
  EXPECT_TRUE(km().pt_ld(secure_page()).ok);
  EXPECT_FALSE(km().pt_sd(normal_page(), 1).ok);
  EXPECT_FALSE(km().pt_ld(normal_page()).ok);
}

TEST_F(KmemTest, EveryAccessChargesCycles) {
  const Cycles c0 = sys_->cycles();
  (void)km().ld(normal_page());
  const Cycles c1 = sys_->cycles();
  EXPECT_GT(c1, c0);
  const u64 i0 = sys_->core().instret();
  (void)km().sd(normal_page(), 1);
  EXPECT_GT(sys_->core().instret(), i0);
}

TEST_F(KmemTest, MustVariantsPanicOnFault) {
  EXPECT_THROW(km().must_sd(secure_page(), 1), KernelPanic);
  EXPECT_THROW((void)km().must_ld(secure_page()), KernelPanic);
  EXPECT_THROW(km().must_pt_sd(normal_page(), 1), KernelPanic);
  EXPECT_NO_THROW(km().must_pt_sd(secure_page(), 1));
}

TEST_F(KmemTest, WordAccessors32Bit) {
  ASSERT_TRUE(km().sw(normal_page(), 0xDEADBEEF).ok);
  const KAccess r = km().lw(normal_page());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xDEADBEEFu);
}

TEST_F(KmemTest, BulkZeroEquivalentToLoop) {
  const PhysAddr a = secure_page();
  const PhysAddr b = secure_page() + kPageSize;
  sys_->mem().fill(a, 0x5A, kPageSize);
  sys_->mem().fill(b, 0x5A, kPageSize);
  ASSERT_TRUE(pt_zero_page_loop(km(), a).ok);
  ASSERT_TRUE(km().pt_bulk_zero(b).ok);   // Fast path.
  EXPECT_TRUE(sys_->mem().is_zero(a, kPageSize));
  EXPECT_TRUE(sys_->mem().is_zero(b, kPageSize));
}

TEST_F(KmemTest, BulkCopyEquivalentToLoop) {
  const PhysAddr src = secure_page();
  const PhysAddr d1 = secure_page() + kPageSize;
  const PhysAddr d2 = secure_page() + 2 * kPageSize;
  for (u64 off = 0; off < kPageSize; off += 8) {
    sys_->mem().write_u64(src + off, off * 3 + 1);
  }
  ASSERT_TRUE(pt_copy_page_loop(km(), d1, src).ok);
  ASSERT_TRUE(km().pt_bulk_copy(d2, src).ok);
  for (u64 off = 0; off < kPageSize; off += 8) {
    EXPECT_EQ(sys_->mem().read_u64(d1 + off), sys_->mem().read_u64(d2 + off));
  }
}

TEST_F(KmemTest, BulkIsZeroDetects) {
  const PhysAddr a = secure_page();
  ASSERT_TRUE(km().pt_bulk_zero(a).ok);
  EXPECT_EQ(km().pt_bulk_is_zero(a).value, 1u);
  ASSERT_TRUE(km().pt_sd(a + kPageSize - 8, 0x1).ok);
  EXPECT_EQ(km().pt_bulk_is_zero(a).value, 0u);
}

TEST_F(KmemTest, BulkOpsStillEnforceProtection) {
  // The fast paths must not bypass PMP: zeroing a secure page with the
  // regular-store bulk helper faults on the probe.
  EXPECT_FALSE(km().bulk_zero(secure_page()).ok);
  // And pt-bulk on normal memory faults too.
  EXPECT_FALSE(km().pt_bulk_zero(normal_page()).ok);
  EXPECT_FALSE(km().pt_bulk_is_zero(normal_page()).ok);
}

TEST_F(KmemTest, BulkCheaperThanLoopButCharged) {
  const PhysAddr a = secure_page();
  const Cycles c0 = sys_->cycles();
  (void)km().pt_bulk_zero(a);
  const Cycles bulk = sys_->cycles() - c0;
  // Bulk op must charge roughly a page worth of word stores.
  EXPECT_GE(bulk, kPageSize / 8);
}

TEST(KmemBaseline, PtAccessorsDegradeToRegular) {
  SystemConfig cfg = SystemConfig::baseline();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  KernelMem& km = sys.kernel().kmem();
  EXPECT_FALSE(km.uses_pt_insns());
  // With no secure region, pt accessors are plain stores and work anywhere.
  const PhysAddr page = kDramBase + MiB(64);
  EXPECT_TRUE(km.pt_sd(page, 7).ok);
  EXPECT_EQ(km.pt_ld(page).value, 7u);
  EXPECT_TRUE(km.sd(page, 8).ok);
}

}  // namespace
}  // namespace ptstore
