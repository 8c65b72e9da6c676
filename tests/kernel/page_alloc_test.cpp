// Zoned page allocator: GFP routing, grow-hook behaviour, cross-zone frees.
#include "kernel/page_alloc.h"

#include <gtest/gtest.h>

#include "common/bits.h"

namespace ptstore {
namespace {

constexpr PhysAddr kBase = 0x8000'0000;
constexpr PhysAddr kSrBase = kBase + MiB(12);
constexpr PhysAddr kEnd = kBase + MiB(16);

class PageAllocTest : public ::testing::Test {
 protected:
  PageAllocTest() : alloc_(kBase, kSrBase, kEnd, bank_) {}
  telemetry::CounterBank bank_;
  PageAllocator alloc_;
};

TEST_F(PageAllocTest, GfpRoutesToZones) {
  const auto kern = alloc_.alloc_pages(Gfp::kKernel, 0);
  const auto user = alloc_.alloc_pages(Gfp::kUser, 0);
  const auto pt = alloc_.alloc_pages(Gfp::kPtStore, 0);
  ASSERT_TRUE(kern && user && pt);
  EXPECT_TRUE(alloc_.normal().contains(*kern));
  EXPECT_TRUE(alloc_.normal().contains(*user));
  EXPECT_TRUE(alloc_.ptstore().contains(*pt));
  EXPECT_GE(*pt, kSrBase);
}

TEST_F(PageAllocTest, FreeRoutesByAddress) {
  const auto pt = alloc_.alloc_pages(Gfp::kPtStore, 0);
  const u64 free_before = alloc_.ptstore().free_pages_count();
  alloc_.free_pages(*pt, 0);
  EXPECT_EQ(alloc_.ptstore().free_pages_count(), free_before + 1);

  const auto kern = alloc_.alloc_pages(Gfp::kKernel, 0);
  const u64 nfree = alloc_.normal().free_pages_count();
  alloc_.free_pages(*kern, 0);
  EXPECT_EQ(alloc_.normal().free_pages_count(), nfree + 1);
}

TEST_F(PageAllocTest, PtStoreExhaustionWithoutHookFails) {
  std::vector<PhysAddr> pages;
  for (;;) {
    const auto p = alloc_.alloc_pages(Gfp::kPtStore, 0);
    if (!p) break;
    pages.push_back(*p);
  }
  EXPECT_EQ(pages.size(), MiB(4) / kPageSize);
  EXPECT_FALSE(alloc_.alloc_pages(Gfp::kPtStore, 0).has_value());
  // Normal zone unaffected.
  EXPECT_TRUE(alloc_.alloc_pages(Gfp::kKernel, 0).has_value());
}

TEST_F(PageAllocTest, GrowHookFiresOnExhaustionAndRetries) {
  int hook_calls = 0;
  alloc_.set_grow_hook([&](unsigned order) {
    ++hook_calls;
    // Emulate the kernel's adjustment: carve pages below the boundary from
    // the normal zone and donate them.
    const u64 chunk = std::max<u64>(64, u64{1} << order);
    const PhysAddr new_base = alloc_.ptstore().base() - (chunk << kPageShift);
    if (!alloc_.normal().alloc_range(new_base, chunk)) return false;
    return alloc_.ptstore().donate_front(new_base, chunk);
  });

  std::vector<PhysAddr> pages;
  const u64 initial = MiB(4) / kPageSize;
  for (u64 i = 0; i < initial + 10; ++i) {
    const auto p = alloc_.alloc_pages(Gfp::kPtStore, 0);
    ASSERT_TRUE(p.has_value()) << i;
    pages.push_back(*p);
  }
  EXPECT_EQ(hook_calls, 1);
  EXPECT_EQ(bank_.value_of("page_alloc.adjustments_triggered"), 1u);
  // Donated pages are genuinely below the old boundary.
  EXPECT_LT(alloc_.ptstore().base(), kSrBase);
}

TEST_F(PageAllocTest, FailedGrowHookPropagatesFailure) {
  alloc_.set_grow_hook([](unsigned) { return false; });
  std::vector<PhysAddr> pages;
  for (;;) {
    const auto p = alloc_.alloc_pages(Gfp::kPtStore, 0);
    if (!p) break;
    pages.push_back(*p);
  }
  EXPECT_FALSE(alloc_.alloc_pages(Gfp::kPtStore, 0).has_value());
}

TEST_F(PageAllocTest, HigherOrderAllocations) {
  const auto big = alloc_.alloc_pages(Gfp::kKernel, 4);  // 64 KiB.
  ASSERT_TRUE(big.has_value());
  EXPECT_TRUE(is_aligned(*big, kPageSize << 4));
  alloc_.free_pages(*big, 4);
}

TEST_F(PageAllocTest, RequestCountersTrack) {
  (void)alloc_.alloc_pages(Gfp::kKernel, 0);
  (void)alloc_.alloc_pages(Gfp::kUser, 0);
  (void)alloc_.alloc_pages(Gfp::kUser, 0);
  (void)alloc_.alloc_pages(Gfp::kPtStore, 0);
  EXPECT_EQ(bank_.value_of("page_alloc.kernel_requests"), 1u);
  EXPECT_EQ(bank_.value_of("page_alloc.user_requests"), 2u);
  EXPECT_EQ(bank_.value_of("page_alloc.ptstore_requests"), 1u);
}

}  // namespace
}  // namespace ptstore
