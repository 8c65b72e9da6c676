// Edge cases of the core's one access path (Core::mem_access) and the MMU's
// inline translate fast path, each pinned by exact counter deltas: the
// canonical check ahead of the DTLB memo, the D-bit re-walk and leaf faults
// on a memo hit, the baseline core's S-bit re-check, and MMIO timing.
#include <string>

#include "cpu_test_util.h"
#include "mem/uart.h"
#include "mmu/pte.h"

namespace ptstore {
namespace {

using testutil::Machine;

constexpr VirtAddr kVa = 0x4000'1000;
constexpr PhysAddr kPageTables = kDramBase + MiB(16);
constexpr PhysAddr kData = kDramBase + MiB(4);
constexpr u64 kValid = pte::kV | pte::kA;

class AccessPathTest : public ::testing::Test {
 protected:
  explicit AccessPathTest(bool ptstore = true) : m_(MiB(32), ptstore) {}

  /// Map kVa -> kData with `flags` under a fresh Sv39 root and switch to it.
  void map_data_page(u64 flags) {
    const PhysAddr root = kPageTables;
    PhysAddr table = root;
    PhysAddr next = root + kPageSize;
    for (int level = 2; level > 0; --level) {
      const PhysAddr slot = table + bits(kVa, 12 + 9 * level, 9) * kPteSize;
      m_.mem.write_u64(slot, pte::make_from_pa(next, pte::kV));
      table = next;
      next += kPageSize;
    }
    m_.mem.write_u64(table + bits(kVa, 12, 9) * kPteSize, pte::make_from_pa(kData, flags));
    m_.core.mmu().set_satp(
        isa::satp::make(isa::satp::kModeSv39, 1, root >> kPageShift, false));
  }

  MemAccessResult load(VirtAddr va) {
    return m_.core.access_as(va, 8, AccessType::kRead, AccessKind::kRegular,
                             Privilege::kSupervisor);
  }
  MemAccessResult store(VirtAddr va, u64 value) {
    return m_.core.access_as(va, 8, AccessType::kWrite, AccessKind::kRegular,
                             Privilege::kSupervisor, value);
  }
  /// Two loads of kVa: a walk, then a DTLB scan hit that arms the memo.
  void arm_dtlb_memo() {
    ASSERT_TRUE(load(kVa).ok);
    ASSERT_TRUE(load(kVa + 8).ok);
  }
  u64 stat(const std::string& name) const { return m_.core.merged_stats().get(name); }

  Machine m_;
};

TEST_F(AccessPathTest, NoncanonicalVaMatchingTheMemoFaultsBeforeTheTlb) {
  map_data_page(kValid | pte::kR | pte::kW | pte::kD);
  arm_dtlb_memo();
  // Bit 45 set, bit 38 clear: non-canonical, with the memo's VPN bits.
  const VirtAddr bad = kVa | (u64{1} << 45);
  const u64 noncanonical = stat("mmu.noncanonical");
  const u64 hits = stat("DTLB.hits");
  const u64 misses = stat("DTLB.misses");
  const MemAccessResult r = load(bad);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kLoadPageFault);
  EXPECT_EQ(stat("mmu.noncanonical"), noncanonical + 1);
  EXPECT_EQ(stat("DTLB.hits"), hits);
  EXPECT_EQ(stat("DTLB.misses"), misses);
}

TEST_F(AccessPathTest, StoreThroughCleanMemoEntryRewalksAndSetsD) {
  map_data_page(kValid | pte::kR | pte::kW);  // D clear.
  arm_dtlb_memo();
  const u64 hits = stat("DTLB.hits");
  const u64 fills = stat("DTLB.fills");
  const u64 walks = stat("mmu.walks");
  const u64 ad = stat("mmu.ad_updates");
  const MemAccessResult w = store(kVa, 0x1234);
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(stat("DTLB.hits"), hits + 1);  // The memo hit, then the re-walk.
  EXPECT_EQ(stat("mmu.walks"), walks + 1);
  EXPECT_EQ(stat("mmu.ad_updates"), ad + 1);
  EXPECT_EQ(stat("DTLB.fills"), fills + 1);
  EXPECT_EQ(m_.mem.read_u64(kData), 0x1234u);
}

TEST_F(AccessPathTest, LeafFaultOnMemoHitCountsOneHit) {
  map_data_page(kValid | pte::kR | pte::kD);  // Read-only.
  arm_dtlb_memo();
  const u64 hits = stat("DTLB.hits");
  const u64 misses = stat("DTLB.misses");
  const u64 walks = stat("mmu.walks");
  const MemAccessResult w = store(kVa, 1);
  EXPECT_FALSE(w.ok);
  EXPECT_EQ(w.fault, isa::TrapCause::kStorePageFault);
  EXPECT_EQ(stat("DTLB.hits"), hits + 1);
  EXPECT_EQ(stat("DTLB.misses"), misses);
  EXPECT_EQ(stat("mmu.walks"), walks);
}

/// An S=1 region at kData inside an all-DRAM RWX entry. The S bit goes in
/// through PmpUnit directly (a checkpoint restore does the same), because
/// the baseline core's pmpcfg CSR write clears it.
void add_secure_region(Core& core) {
  constexpr u8 kNapot = static_cast<u8>(PmpMatch::kNapot) << pmpcfg::kAShift;
  core.pmp().set_addr(0, (kData >> 2) | (kPageSize / 8 - 1));
  core.pmp().set_cfg(0, kNapot | pmpcfg::kR | pmpcfg::kW | pmpcfg::kS);
  core.pmp().set_addr(1, (kDramBase >> 2) | (MiB(32) / 8 - 1));
  core.pmp().set_cfg(1, kNapot | pmpcfg::kR | pmpcfg::kW | pmpcfg::kX);
}

TEST_F(AccessPathTest, PtstoreCoreDeniesRegularReadOfSecureRegion) {
  add_secure_region(m_.core);
  const u64 faults = stat("core.pmp_faults");
  const MemAccessResult r = load(kData);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.fault, isa::TrapCause::kLoadAccessFault);
  EXPECT_EQ(stat("core.pmp_faults"), faults + 1);
}

class BaselineAccessPathTest : public AccessPathTest {
 protected:
  BaselineAccessPathTest() : AccessPathTest(/*ptstore=*/false) {}
};

TEST_F(BaselineAccessPathTest, BaselineCoreReadsSecureRegion) {
  add_secure_region(m_.core);
  m_.mem.write_u64(kData, 0xfeed);
  const u64 faults = stat("core.pmp_faults");
  const MemAccessResult r = load(kData);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0xfeedu);
  // A pt-kind access outside the secure region is a plain access there too.
  const MemAccessResult pt = m_.core.access_as(kData + kPageSize, 8, AccessType::kRead,
                                               AccessKind::kPtInsn, Privilege::kSupervisor);
  EXPECT_TRUE(pt.ok);
  EXPECT_EQ(stat("core.pmp_faults"), faults);
}

TEST_F(AccessPathTest, MmioAccessChargesTwentyCycles) {
  constexpr PhysAddr kDev = 0x1800'0000;
  UartDevice uart;
  ASSERT_TRUE(m_.mem.map_device(kDev, kPageSize, &uart));
  const u64 l1d = stat("L1D.hits") + stat("L1D.misses");
  const MemAccessResult r = m_.core.access_as(kDev + UartDevice::kStatusOff, 8,
                                              AccessType::kRead, AccessKind::kRegular,
                                              Privilege::kMachine);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.cycles, 20u);
  const MemAccessResult w = m_.core.access_as(kDev + UartDevice::kTxOff, 8,
                                              AccessType::kWrite, AccessKind::kRegular,
                                              Privilege::kMachine, 'x');
  ASSERT_TRUE(w.ok);
  EXPECT_EQ(w.cycles, 20u);
  EXPECT_EQ(uart.transmitted(), "x");
  EXPECT_EQ(stat("L1D.hits") + stat("L1D.misses"), l1d);  // Uncached.
}

}  // namespace
}  // namespace ptstore
