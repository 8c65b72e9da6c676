// Sv39 page-table walker: translation, permissions, superpages, A/D bits,
// TLB interaction, and the reference-translator cross-check property.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "mmu/mmu.h"

namespace ptstore {
namespace {

class WalkerTest : public ::testing::Test {
 protected:
  WalkerTest()
      : mem_(kDramBase, MiB(64)),
        mmu_(mem_, pmp_, TlbConfig{.name = "I", .entries = 32},
             TlbConfig{.name = "D", .entries = 8}, bank_) {}

  /// Allocate a fresh zeroed page-table page.
  PhysAddr alloc_page() {
    const PhysAddr pa = next_;
    next_ += kPageSize;
    return pa;
  }

  /// Install a 4 KiB mapping va -> pa with `flags` under root_, creating
  /// intermediate tables directly in physical memory.
  void map(PhysAddr root, VirtAddr va, PhysAddr pa, u64 flags) {
    PhysAddr table = root;
    for (int level = 2; level > 0; --level) {
      const PhysAddr slot = table + bits(va, 12 + 9 * level, 9) * kPteSize;
      u64 e = mem_.read_u64(slot);
      if (!pte::is_table(e)) {
        const PhysAddr next = alloc_page();
        e = pte::make_from_pa(next, pte::kV);
        mem_.write_u64(slot, e);
      }
      table = pte::pa(e);
    }
    mem_.write_u64(table + bits(va, 12, 9) * kPteSize, pte::make_from_pa(pa, flags));
  }

  void use_root(PhysAddr root, u16 asid = 1, bool secure = false) {
    mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, asid, root >> kPageShift, secure));
  }

  TranslationContext sctx(bool sum = false, bool mxr = false) {
    return {Privilege::kSupervisor, sum, mxr};
  }
  TranslationContext uctx() { return {Privilege::kUser, false, false}; }

  PhysMem mem_;
  PmpUnit pmp_;
  telemetry::CounterBank bank_;
  Mmu mmu_;
  PhysAddr next_ = kDramBase + MiB(1);
};

constexpr u64 kRwx = pte::kV | pte::kR | pte::kW | pte::kX | pte::kA | pte::kD;

TEST_F(WalkerTest, BareModeIsIdentity) {
  mmu_.set_satp(0);
  const auto r = mmu_.translate(0x8123'4568, AccessType::kRead, AccessKind::kRegular, sctx());
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.pa, 0x8123'4568u);
}

TEST_F(WalkerTest, MachineModeBypasses) {
  use_root(alloc_page());
  const auto r = mmu_.translate(0xDEAD'BEEF'0000, AccessType::kRead, AccessKind::kRegular,
                                {Privilege::kMachine, false, false});
  EXPECT_TRUE(r.ok);
}

TEST_F(WalkerTest, BasicLeafTranslation) {
  const PhysAddr root = alloc_page();
  map(root, 0x4000'1000, kDramBase + MiB(2), kRwx);
  use_root(root);
  const auto r = mmu_.translate(0x4000'1234, AccessType::kRead, AccessKind::kRegular, sctx());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa, kDramBase + MiB(2) + 0x234);
  EXPECT_EQ(r.level, 0u);
  EXPECT_FALSE(r.tlb_hit);
  EXPECT_GT(r.cycles, 0u);
}

TEST_F(WalkerTest, SecondAccessHitsTlb) {
  const PhysAddr root = alloc_page();
  map(root, 0x4000'1000, kDramBase + MiB(2), kRwx);
  use_root(root);
  (void)mmu_.translate(0x4000'1000, AccessType::kRead, AccessKind::kRegular, sctx());
  const auto r = mmu_.translate(0x4000'1008, AccessType::kRead, AccessKind::kRegular, sctx());
  ASSERT_TRUE(r.ok);
  EXPECT_TRUE(r.tlb_hit);
  EXPECT_EQ(r.cycles, 0u);
}

TEST_F(WalkerTest, NonCanonicalFaults) {
  use_root(alloc_page());
  const auto r = mmu_.translate(u64{1} << 45, AccessType::kRead, AccessKind::kRegular, sctx());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kLoadPageFault);
}

TEST_F(WalkerTest, CanonicalHighHalfWalks) {
  // Bits [63:39] replicating bit 38 = canonical "negative" address.
  const PhysAddr root = alloc_page();
  const VirtAddr va = 0xFFFF'FFC0'0000'1000;  // Canonical for Sv39.
  map(root, va, kDramBase + MiB(3), kRwx);
  use_root(root);
  const auto r = mmu_.translate(va, AccessType::kRead, AccessKind::kRegular, sctx());
  EXPECT_TRUE(r.ok);
}

TEST_F(WalkerTest, NotPresentFaultsByAccessType) {
  const PhysAddr root = alloc_page();
  use_root(root);
  EXPECT_EQ(mmu_.translate(0x1000, AccessType::kRead, AccessKind::kRegular, sctx()).fault,
            isa::TrapCause::kLoadPageFault);
  EXPECT_EQ(mmu_.translate(0x1000, AccessType::kWrite, AccessKind::kRegular, sctx()).fault,
            isa::TrapCause::kStorePageFault);
  EXPECT_EQ(mmu_.translate(0x1000, AccessType::kExecute, AccessKind::kRegular, sctx()).fault,
            isa::TrapCause::kInstPageFault);
}

TEST_F(WalkerTest, MalformedWNoRFaults) {
  const PhysAddr root = alloc_page();
  map(root, 0x2000, kDramBase + MiB(2), pte::kV | pte::kW | pte::kA | pte::kD);
  use_root(root);
  EXPECT_FALSE(
      mmu_.translate(0x2000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
}

TEST_F(WalkerTest, PermissionChecks) {
  const PhysAddr root = alloc_page();
  map(root, 0x3000, kDramBase + MiB(2), pte::kV | pte::kR | pte::kA);
  use_root(root);
  EXPECT_TRUE(mmu_.translate(0x3000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
  EXPECT_FALSE(mmu_.translate(0x3000, AccessType::kWrite, AccessKind::kRegular, sctx()).ok);
  EXPECT_FALSE(mmu_.translate(0x3000, AccessType::kExecute, AccessKind::kRegular, sctx()).ok);
}

TEST_F(WalkerTest, UserBitSemantics) {
  const PhysAddr root = alloc_page();
  map(root, 0x4000, kDramBase + MiB(2), kRwx | pte::kU);  // User page.
  map(root, 0x5000, kDramBase + MiB(3), kRwx);            // Kernel page.
  use_root(root);
  // U-mode: may use the user page, not the kernel page.
  EXPECT_TRUE(mmu_.translate(0x4000, AccessType::kRead, AccessKind::kRegular, uctx()).ok);
  EXPECT_FALSE(mmu_.translate(0x5000, AccessType::kRead, AccessKind::kRegular, uctx()).ok);
  // S-mode without SUM: user pages are off-limits.
  EXPECT_FALSE(mmu_.translate(0x4000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
  // S-mode with SUM: loads/stores allowed, execute never.
  EXPECT_TRUE(
      mmu_.translate(0x4000, AccessType::kRead, AccessKind::kRegular, sctx(true)).ok);
  EXPECT_FALSE(
      mmu_.translate(0x4000, AccessType::kExecute, AccessKind::kRegular, sctx(true)).ok);
}

TEST_F(WalkerTest, MxrMakesExecutableReadable) {
  const PhysAddr root = alloc_page();
  map(root, 0x6000, kDramBase + MiB(2), pte::kV | pte::kX | pte::kA);
  use_root(root);
  EXPECT_FALSE(mmu_.translate(0x6000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
  EXPECT_TRUE(
      mmu_.translate(0x6000, AccessType::kRead, AccessKind::kRegular, sctx(false, true)).ok);
}

TEST_F(WalkerTest, GigapageTranslation) {
  const PhysAddr root = alloc_page();
  // Level-2 leaf: VA [1 GiB, 2 GiB) -> PA [0x8000_0000, ...).
  mem_.write_u64(root + 1 * kPteSize, pte::make_from_pa(0x8000'0000, kRwx));
  use_root(root);
  const auto r = mmu_.translate(GiB(1) + 0x12'3456, AccessType::kRead,
                                AccessKind::kRegular, sctx());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa, 0x8000'0000 + 0x12'3456u);
  EXPECT_EQ(r.level, 2u);
}

TEST_F(WalkerTest, MisalignedSuperpageFaults) {
  const PhysAddr root = alloc_page();
  // Level-2 leaf whose PPN has nonzero low bits: reserved -> page fault.
  mem_.write_u64(root + 1 * kPteSize, pte::make_from_pa(0x8000'0000 + kPageSize, kRwx));
  use_root(root);
  EXPECT_FALSE(
      mmu_.translate(GiB(1), AccessType::kRead, AccessKind::kRegular, sctx()).ok);
}

TEST_F(WalkerTest, HardwareSetsAAndD) {
  const PhysAddr root = alloc_page();
  map(root, 0x7000, kDramBase + MiB(2), pte::kV | pte::kR | pte::kW);
  use_root(root);
  ASSERT_TRUE(mmu_.translate(0x7000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
  // Find the leaf and check A is now set, D not yet.
  u64 leaf = *[&] {
    return std::optional<u64>(mmu_.translate(0x7000, AccessType::kRead,
                                             AccessKind::kRegular, sctx())
                                  .leaf_pte);
  }();
  EXPECT_TRUE(leaf & pte::kA);
  EXPECT_FALSE(leaf & pte::kD);
  ASSERT_TRUE(mmu_.translate(0x7000, AccessType::kWrite, AccessKind::kRegular, sctx()).ok);
  leaf = mmu_.translate(0x7000, AccessType::kWrite, AccessKind::kRegular, sctx()).leaf_pte;
  EXPECT_TRUE(leaf & pte::kD);
}

TEST_F(WalkerTest, SfenceDropsCachedTranslation) {
  const PhysAddr root = alloc_page();
  map(root, 0x8000, kDramBase + MiB(2), kRwx);
  use_root(root);
  ASSERT_TRUE(mmu_.translate(0x8000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
  // Change the mapping behind the TLB's back, then sfence.
  map(root, 0x8000, kDramBase + MiB(4), kRwx);
  mmu_.sfence(std::nullopt, std::nullopt);
  const auto r = mmu_.translate(0x8000, AccessType::kRead, AccessKind::kRegular, sctx());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa, kDramBase + MiB(4));
}

TEST_F(WalkerTest, StaleTlbWithoutSfence) {
  // The inconsistency the paper's §V-E5 relies on: without sfence, the old
  // translation keeps serving from the TLB.
  const PhysAddr root = alloc_page();
  map(root, 0x8000, kDramBase + MiB(2), kRwx);
  use_root(root);
  ASSERT_TRUE(mmu_.translate(0x8000, AccessType::kRead, AccessKind::kRegular, sctx()).ok);
  map(root, 0x8000, kDramBase + MiB(4), kRwx);
  const auto r = mmu_.translate(0x8000, AccessType::kRead, AccessKind::kRegular, sctx());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa, kDramBase + MiB(2));  // Stale.
}

TEST_F(WalkerTest, PtwOutsideDramFaults) {
  // Root PPN points past the end of DRAM.
  mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, 1,
                                (kDramBase + MiB(128)) >> kPageShift, false));
  const auto r = mmu_.translate(0x1000, AccessType::kRead, AccessKind::kRegular, sctx());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kLoadAccessFault);
}

// Property: for random mappings and random probes, the caching walker and
// the reference translator agree exactly (both in success and in result).
TEST_F(WalkerTest, ReferenceCrossCheckProperty) {
  Rng rng(99);
  const PhysAddr root = alloc_page();
  std::vector<VirtAddr> vas;
  for (int i = 0; i < 64; ++i) {
    const VirtAddr va = (rng.next_below(u64{1} << 26)) << kPageShift;
    const PhysAddr pa = kDramBase + MiB(8) + (rng.next_below(1024) << kPageShift);
    u64 flags = pte::kV | pte::kA | pte::kD | pte::kR;
    if (rng.chance(0.5)) flags |= pte::kW;
    if (rng.chance(0.3)) flags |= pte::kX;
    if (rng.chance(0.4)) flags |= pte::kU;
    map(root, va, pa, flags);
    vas.push_back(va);
  }
  use_root(root);
  for (int probe = 0; probe < 500; ++probe) {
    const VirtAddr va = vas[rng.next_below(vas.size())] +
                        (rng.chance(0.8) ? rng.next_below(kPageSize) & ~u64{7} : 0);
    const AccessType type = static_cast<AccessType>(rng.next_below(3));
    const TranslationContext ctx{rng.chance(0.5) ? Privilege::kSupervisor
                                                 : Privilege::kUser,
                                 rng.chance(0.5), rng.chance(0.5)};
    const auto fast = mmu_.translate(va, type, AccessKind::kRegular, ctx);
    const auto ref = mmu_.reference_translate(va, type, ctx);
    EXPECT_EQ(fast.ok, ref.has_value()) << std::hex << va;
    if (fast.ok && ref) {
      EXPECT_EQ(fast.pa, *ref) << std::hex << va;
    }
  }
}

}  // namespace
}  // namespace ptstore
