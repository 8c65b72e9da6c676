// Timing model observability: relative costs the cycle-approximate model
// must exhibit (they drive every benchmark figure).
#include "cpu_test_util.h"

namespace ptstore {
namespace {

using testutil::Machine;
using isa::Assembler;
using isa::Reg;

/// Cycles consumed by a program fragment, measured from a fresh machine.
Cycles cost_of(const std::function<void(Assembler&)>& build) {
  Machine m;
  // Warm the I-cache with a dry run so fetch misses don't dominate.
  m.run_program(build, 1'000'000);
  const Cycles c0 = m.core.cycles();
  m.core.set_pc(kDramBase);
  m.core.run(1'000'000);
  return m.core.cycles() - c0;
}

TEST(Timing, DivCostsMoreThanAdd) {
  const Cycles add = cost_of([](Assembler& a) {
    for (int i = 0; i < 50; ++i) a.add(Reg::kA0, Reg::kA1, Reg::kA2);
    a.ebreak();
  });
  const Cycles div = cost_of([](Assembler& a) {
    for (int i = 0; i < 50; ++i) a.div(Reg::kA0, Reg::kA1, Reg::kA2);
    a.ebreak();
  });
  EXPECT_GT(div, add + 50 * 10);  // div_extra = 20 per op.
}

TEST(Timing, ColdBranchesMispredictWarmOnesDoNot) {
  // With the branch predictor, the first pass over an always-taken chain
  // mispredicts (weakly-not-taken reset state); the warmed pass is free.
  Machine m;
  Assembler a(kDramBase);
  for (int i = 0; i < 64; ++i) {
    auto l = a.make_label();
    a.beq(Reg::kZero, Reg::kZero, l);  // Always taken, falls to next inst.
    a.bind(l);
  }
  a.ebreak();
  m.core.load_code(kDramBase, a.finish());

  const Cycles c0 = m.core.cycles();
  m.core.run(1'000'000);
  const Cycles cold = m.core.cycles() - c0;
  m.core.set_pc(kDramBase);
  const Cycles c1 = m.core.cycles();
  m.core.run(1'000'000);
  const Cycles warm = m.core.cycles() - c1;
  EXPECT_GT(cold, warm + 64 * 5);  // ~7 cycles per cold mispredict.
  EXPECT_GT(m.core.merged_stats().get("bp.hits"), 60u);
}

TEST(Timing, FlatTakenPenaltyWhenPredictorDisabled) {
  auto cost_nopred = [](const std::function<void(Assembler&)>& build) {
    PhysMem mem(kDramBase, MiB(32));
    CoreConfig cfg;
    cfg.bpred.enabled = false;
    Core core(mem, cfg);
    Assembler a(kDramBase);
    build(a);
    core.load_code(kDramBase, a.finish());
    core.run(1'000'000);
    core.set_pc(kDramBase);
    const Cycles c0 = core.cycles();
    core.run(1'000'000);
    return core.cycles() - c0;
  };
  const Cycles taken = cost_nopred([](Assembler& a) {
    for (int i = 0; i < 64; ++i) {
      auto l = a.make_label();
      a.beq(Reg::kZero, Reg::kZero, l);
      a.bind(l);
    }
    a.ebreak();
  });
  const Cycles nops = cost_nopred([](Assembler& a) {
    for (int i = 0; i < 64; ++i) a.nop();
    a.ebreak();
  });
  EXPECT_GT(taken, nops + 64);  // branch_taken_penalty = 2 each, every time.
}

TEST(Timing, ColdDataMissCostsMoreThanHit) {
  Machine m;
  const PhysAddr data = kDramBase + MiB(4);
  const MemAccessResult cold = m.core.access_as(
      data, 8, AccessType::kRead, AccessKind::kRegular, Privilege::kMachine);
  const MemAccessResult warm = m.core.access_as(
      data, 8, AccessType::kRead, AccessKind::kRegular, Privilege::kMachine);
  ASSERT_TRUE(cold.ok && warm.ok);
  EXPECT_GT(cold.cycles, warm.cycles + 20);
}

TEST(Timing, TlbMissChargesWalkCycles) {
  Machine m;
  // Sv39 mapping: one 4 KiB page; accesses go through S-mode translation.
  const PhysAddr root = kDramBase + MiB(2);
  const PhysAddr l1 = root + kPageSize;
  const PhysAddr l0 = root + 2 * kPageSize;
  const VirtAddr va = 0x4000'0000'0;
  m.mem.write_u64(root + bits(va, 30, 9) * 8, pte::make_from_pa(l1, pte::kV));
  m.mem.write_u64(l1 + bits(va, 21, 9) * 8, pte::make_from_pa(l0, pte::kV));
  m.mem.write_u64(l0 + bits(va, 12, 9) * 8,
                  pte::make_from_pa(kDramBase + MiB(8),
                                    pte::kV | pte::kR | pte::kW | pte::kA | pte::kD));
  m.core.write_csr(isa::csr::kSatp,
                   isa::satp::make(isa::satp::kModeSv39, 1,
                                   root >> kPageShift, false),
                   Privilege::kSupervisor);
  const MemAccessResult miss = m.core.access_as(
      va, 8, AccessType::kRead, AccessKind::kRegular, Privilege::kSupervisor);
  const MemAccessResult hit = m.core.access_as(
      va, 8, AccessType::kRead, AccessKind::kRegular, Privilege::kSupervisor);
  ASSERT_TRUE(miss.ok && hit.ok);
  EXPECT_GT(miss.cycles, hit.cycles);  // Walk cost only on the fill.
}

TEST(Timing, CsrAndFencesCost) {
  const Cycles plain = cost_of([](Assembler& a) {
    for (int i = 0; i < 16; ++i) a.nop();
    a.ebreak();
  });
  const Cycles csr = cost_of([](Assembler& a) {
    for (int i = 0; i < 16; ++i) a.csrrs(Reg::kA0, isa::csr::kMscratch, Reg::kZero);
    a.ebreak();
  });
  const Cycles sfence = cost_of([](Assembler& a) {
    for (int i = 0; i < 16; ++i) a.sfence_vma();
    a.ebreak();
  });
  EXPECT_GT(csr, plain);
  EXPECT_GT(sfence, csr);  // sfence_extra (30) > csr_extra (3).
}

TEST(Timing, TrapRoundTripCharged) {
  Machine m;
  const Cycles before = m.core.cycles();
  m.core.take_trap(isa::TrapCause::kEcallFromS, 0);
  const Cycles entry = m.core.cycles() - before;
  EXPECT_GE(entry, m.core.config().timing.trap_entry);
}

TEST(Timing, AbstractRetirementScales) {
  Machine m;
  const Cycles c0 = m.core.cycles();
  const u64 i0 = m.core.instret();
  m.core.retire_abstract(1000, 2);
  EXPECT_EQ(m.core.cycles() - c0, 2000u);
  EXPECT_EQ(m.core.instret() - i0, 1000u);
}

TEST(Timing, CompressedAndFullCostSameBaseCpi) {
  // RVC saves fetch bandwidth, not execution cycles: a c.addi chain and an
  // addi chain of equal length cost the same in this model (both resident
  // in the I-cache).
  Machine m1;
  for (int i = 0; i < 32; ++i) m1.mem.write_u16(kDramBase + 2 * i, 0x0505);  // c.addi a0,1
  m1.mem.write_u16(kDramBase + 64, 0x9002);  // c.ebreak
  m1.core.run(1000);
  m1.core.set_pc(kDramBase);
  const Cycles c0 = m1.core.cycles();
  m1.core.run(1000);
  const Cycles compressed = m1.core.cycles() - c0;

  const Cycles full = cost_of([](Assembler& a) {
    for (int i = 0; i < 32; ++i) a.addi(Reg::kA0, Reg::kA0, 1);
    a.ebreak();
  });
  EXPECT_NEAR(static_cast<double>(compressed), static_cast<double>(full),
              static_cast<double>(full) * 0.2);
}

}  // namespace
}  // namespace ptstore
