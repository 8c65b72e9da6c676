// PTStore's satp.S walker check (paper §IV-A1): with the S-bit set, every
// PTE fetch must land in a PMP S=1 region; otherwise the access faults.
// This is the hardware mechanism that defeats PT-Injection.
#include <gtest/gtest.h>

#include "mmu/mmu.h"

namespace ptstore {
namespace {

class SecureWalkTest : public ::testing::Test {
 protected:
  SecureWalkTest()
      : mem_(kDramBase, MiB(64)),
        mmu_(mem_, pmp_, TlbConfig{.name = "I", .entries = 32},
             TlbConfig{.name = "D", .entries = 8}, bank_) {
    // Secure region: top 16 MiB of DRAM.
    sr_base_ = mem_.dram_end() - MiB(16);
    pmp_.set_addr(0, sr_base_ >> 2);
    pmp_.set_cfg(0, static_cast<u8>(pmpcfg::kR | pmpcfg::kW | pmpcfg::kX |
                                    (static_cast<u8>(PmpMatch::kTor) << pmpcfg::kAShift)));
    pmp_.set_addr(1, mem_.dram_end() >> 2);
    pmp_.set_cfg(1, static_cast<u8>(pmpcfg::kR | pmpcfg::kW | pmpcfg::kS |
                                    (static_cast<u8>(PmpMatch::kTor) << pmpcfg::kAShift)));
  }

  /// Build a one-page mapping under a root placed at `root`, with all
  /// intermediate tables allocated from `pool`.
  void build(PhysAddr root, PhysAddr pool, VirtAddr va, PhysAddr target) {
    const PhysAddr l1 = pool;
    const PhysAddr l0 = pool + kPageSize;
    mem_.write_u64(root + bits(va, 30, 9) * kPteSize, pte::make_from_pa(l1, pte::kV));
    mem_.write_u64(l1 + bits(va, 21, 9) * kPteSize, pte::make_from_pa(l0, pte::kV));
    mem_.write_u64(l0 + bits(va, 12, 9) * kPteSize,
                   pte::make_from_pa(target, pte::kV | pte::kR | pte::kW | pte::kA |
                                                 pte::kD | pte::kU));
  }

  TranslationContext uctx() { return {Privilege::kUser, false, false}; }

  PhysMem mem_;
  PmpUnit pmp_;
  telemetry::CounterBank bank_;
  Mmu mmu_;
  PhysAddr sr_base_ = 0;
};

constexpr VirtAddr kVa = 0x7000'1000;

TEST_F(SecureWalkTest, SecureTablesWalkWithSBit) {
  const PhysAddr root = sr_base_;
  build(root, sr_base_ + kPageSize, kVa, kDramBase + MiB(1));
  mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, 1, root >> kPageShift, true));
  const auto r = mmu_.translate(kVa, AccessType::kRead, AccessKind::kRegular, uctx());
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.pa, kDramBase + MiB(1) + 0u);
}

TEST_F(SecureWalkTest, InjectedRootRefusedWithSBit) {
  // Fake tables in normal memory — the PT-Injection payload.
  const PhysAddr fake_root = kDramBase + MiB(2);
  build(fake_root, kDramBase + MiB(3), kVa, kDramBase + MiB(1));
  mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, 1, fake_root >> kPageShift, true));
  const auto r = mmu_.translate(kVa, AccessType::kWrite, AccessKind::kRegular, uctx());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kStoreAccessFault);
  EXPECT_EQ(bank_.value_of("mmu.ptw_secure_denied"), 1u);
}

TEST_F(SecureWalkTest, InjectedRootAcceptedWithoutSBit) {
  // The unprotected baseline: same injection, S-bit clear — the walk works,
  // which is exactly the vulnerability.
  const PhysAddr fake_root = kDramBase + MiB(2);
  build(fake_root, kDramBase + MiB(3), kVa, kDramBase + MiB(1));
  mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, 1, fake_root >> kPageShift, false));
  EXPECT_TRUE(mmu_.translate(kVa, AccessType::kWrite, AccessKind::kRegular, uctx()).ok);
}

TEST_F(SecureWalkTest, MixedHierarchyRefusedAtInteriorLevel) {
  // Root in the secure region but the level-1 table outside: the walk must
  // fault at the interior fetch, not accept the hybrid.
  const PhysAddr root = sr_base_;
  const PhysAddr evil_l1 = kDramBase + MiB(2);
  const PhysAddr l0 = sr_base_ + kPageSize;
  mem_.write_u64(root + bits(kVa, 30, 9) * kPteSize, pte::make_from_pa(evil_l1, pte::kV));
  mem_.write_u64(evil_l1 + bits(kVa, 21, 9) * kPteSize, pte::make_from_pa(l0, pte::kV));
  mem_.write_u64(l0 + bits(kVa, 12, 9) * kPteSize,
                 pte::make_from_pa(kDramBase + MiB(1),
                                   pte::kV | pte::kR | pte::kA | pte::kU));
  mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, 1, root >> kPageShift, true));
  const auto r = mmu_.translate(kVa, AccessType::kRead, AccessKind::kRegular, uctx());
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kLoadAccessFault);
}

TEST_F(SecureWalkTest, SatpSBitHelpers) {
  const u64 v = isa::satp::make(isa::satp::kModeSv39, 0x123, 0x456, true);
  EXPECT_TRUE(isa::satp::secure_check(v));
  EXPECT_EQ(isa::satp::mode(v), isa::satp::kModeSv39);
  EXPECT_EQ(isa::satp::asid(v), 0x123u);
  EXPECT_EQ(isa::satp::ppn(v), 0x456u);
  const u64 v2 = isa::satp::make(isa::satp::kModeSv39, 0x123, 0x456, false);
  EXPECT_FALSE(isa::satp::secure_check(v2));
  // The S-bit must not bleed into ASID or PPN.
  EXPECT_EQ(isa::satp::asid(v), isa::satp::asid(v2));
  EXPECT_EQ(isa::satp::ppn(v), isa::satp::ppn(v2));
}

TEST_F(SecureWalkTest, AdWritebackStaysInSecureRegion) {
  // The walker's A/D update writes to the same checked PTE slot; with
  // secure tables it must succeed and set the bits.
  const PhysAddr root = sr_base_;
  const PhysAddr l1 = sr_base_ + kPageSize;
  const PhysAddr l0 = sr_base_ + 2 * kPageSize;
  mem_.write_u64(root + bits(kVa, 30, 9) * kPteSize, pte::make_from_pa(l1, pte::kV));
  mem_.write_u64(l1 + bits(kVa, 21, 9) * kPteSize, pte::make_from_pa(l0, pte::kV));
  const PhysAddr slot = l0 + bits(kVa, 12, 9) * kPteSize;
  mem_.write_u64(slot, pte::make_from_pa(kDramBase + MiB(1),
                                         pte::kV | pte::kR | pte::kW | pte::kU));
  mmu_.set_satp(isa::satp::make(isa::satp::kModeSv39, 1, root >> kPageShift, true));
  ASSERT_TRUE(mmu_.translate(kVa, AccessType::kWrite, AccessKind::kRegular, uctx()).ok);
  const u64 leaf = mem_.read_u64(slot);
  EXPECT_TRUE(leaf & pte::kA);
  EXPECT_TRUE(leaf & pte::kD);
}

}  // namespace
}  // namespace ptstore
