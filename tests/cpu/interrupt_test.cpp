// Machine/supervisor timer interrupts: mtimecmp arming, delivery, masking,
// delegation, handler return, and wfi wake-up — driven with real guest
// handler code.
#include "cpu_test_util.h"

namespace ptstore {
namespace {

using testutil::Machine;
using isa::Assembler;
using isa::Reg;
namespace csr = isa::csr;

constexpr u64 kMtie = u64{1} << csr::irq::kMti;
constexpr u64 kStie = u64{1} << csr::irq::kSti;

TEST(Interrupt, DisarmedTimerNeverFires) {
  Machine m;
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  m.core.write_csr(csr::kMstatus, csr::mstatus::kMie, Privilege::kMachine);
  const auto r = m.run_program([](auto& a) {
    for (int i = 0; i < 50; ++i) a.nop();
    a.ebreak();
  });
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 0u);
}

TEST(Interrupt, TimerFiresAndVectorsToMtvec) {
  Machine m;
  const PhysAddr handler = kDramBase + 0x1000;
  m.core.write_csr(csr::kMtvec, handler, Privilege::kMachine);
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  m.core.write_csr(csr::kMstatus, csr::mstatus::kMie, Privilege::kMachine);
  m.core.write_csr(csr::kMtimecmp, m.core.cycles() + 20, Privilege::kMachine);

  // Main loop spins; handler stops the machine.
  Assembler main_prog(kDramBase);
  auto loop = main_prog.make_label();
  main_prog.bind(loop);
  main_prog.j(loop);
  m.core.load_code(kDramBase, main_prog.finish());

  // Handler: disarm the timer (clears MTIP) and halt with wfi. (ebreak
  // would trap to mtvec now that a handler is installed.)
  Assembler h(handler);
  h.li(Reg::kT6, ~u64{0});
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.wfi();
  m.core.load_code(handler, h.finish());

  const StepResult r = m.core.run(1000);
  EXPECT_EQ(r.stop, StopReason::kWfi);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 1u);
  EXPECT_EQ(*m.core.read_csr(csr::kMcause, Privilege::kMachine),
            csr::irq::kCauseInterrupt | csr::irq::kMti);
  // mepc points into the interrupted loop.
  const u64 mepc = *m.core.read_csr(csr::kMepc, Privilege::kMachine);
  EXPECT_EQ(mepc, kDramBase);
}

TEST(Interrupt, MaskedByMie) {
  Machine m;
  m.core.write_csr(csr::kMie, 0, Privilege::kMachine);  // MTIE off.
  m.core.write_csr(csr::kMstatus, csr::mstatus::kMie, Privilege::kMachine);
  m.core.write_csr(csr::kMtimecmp, 0, Privilege::kMachine);  // Expired already.
  const auto r = m.run_program([](auto& a) {
    for (int i = 0; i < 20; ++i) a.nop();
    a.ebreak();
  });
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 0u);
}

TEST(Interrupt, MaskedByGlobalMieInMachineMode) {
  Machine m;
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  // mstatus.MIE clear: M-mode runs with interrupts off.
  m.core.write_csr(csr::kMtimecmp, 0, Privilege::kMachine);
  const auto r = m.run_program([](auto& a) {
    for (int i = 0; i < 20; ++i) a.nop();
    a.ebreak();
  });
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 0u);
}

TEST(Interrupt, FiresInUserModeRegardlessOfMie) {
  // Interrupts targeting M are always enabled from lower privileges.
  Machine m;
  const PhysAddr handler = kDramBase + 0x1000;
  m.core.write_csr(csr::kMtvec, handler, Privilege::kMachine);
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  m.core.write_csr(csr::kMtimecmp, 0, Privilege::kMachine);

  Assembler u(kDramBase);
  auto loop = u.make_label();
  u.bind(loop);
  u.j(loop);
  m.core.load_code(kDramBase, u.finish());
  Assembler h(handler);
  h.li(Reg::kT6, ~u64{0});
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.wfi();
  m.core.load_code(handler, h.finish());

  m.core.set_priv(Privilege::kUser);
  const StepResult r = m.core.run(100);
  EXPECT_EQ(r.stop, StopReason::kWfi);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 1u);
  EXPECT_EQ(m.core.priv(), Privilege::kMachine);
  // MPP recorded U.
  EXPECT_EQ(bits(*m.core.read_csr(csr::kMstatus, Privilege::kMachine),
                 csr::mstatus::kMppShift, 2),
            0u);
}

TEST(Interrupt, HandlerCanRescheduleAndMret) {
  // Full periodic-tick loop in machine code: the handler counts ticks in
  // mscratch, re-arms mtimecmp, and mrets back into the main loop.
  Machine m;
  const PhysAddr handler = kDramBase + 0x1000;
  m.core.write_csr(csr::kMtvec, handler, Privilege::kMachine);
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  m.core.write_csr(csr::kMstatus, csr::mstatus::kMie, Privilege::kMachine);
  m.core.write_csr(csr::kMtimecmp, m.core.cycles() + 50, Privilege::kMachine);

  // Main: loop until mscratch (tick count) reaches 3, then halt.
  Assembler mp(kDramBase);
  auto loop = mp.make_label();
  auto done = mp.make_label();
  mp.bind(loop);
  mp.csrrs(Reg::kT0, csr::kMscratch, Reg::kZero);
  mp.li(Reg::kT1, 3);
  mp.bge(Reg::kT0, Reg::kT1, done);
  mp.j(loop);
  mp.bind(done);
  // Disarm and halt (ebreak would vector to the handler).
  mp.li(Reg::kT6, ~u64{0});
  mp.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  mp.wfi();
  m.core.load_code(kDramBase, mp.finish());

  // Handler: mscratch++, mtimecmp = time + 120, mret.
  Assembler h(handler);
  h.csrrs(Reg::kT2, csr::kMscratch, Reg::kZero);
  h.addi(Reg::kT2, Reg::kT2, 1);
  h.csrrw(Reg::kZero, csr::kMscratch, Reg::kT2);
  h.csrrs(Reg::kT3, csr::kTime, Reg::kZero);
  h.addi(Reg::kT3, Reg::kT3, 120);
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT3);
  h.mret();
  m.core.load_code(handler, h.finish());

  const StepResult r = m.core.run(100000);
  EXPECT_EQ(r.stop, StopReason::kWfi);
  EXPECT_EQ(*m.core.read_csr(csr::kMscratch, Privilege::kMachine), 3u);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 3u);
}

TEST(Interrupt, SupervisorTimerDelegation) {
  // STI delegated via mideleg lands in S-mode at stvec.
  Machine m;
  const PhysAddr s_handler = kDramBase + 0x2000;
  m.core.write_csr(csr::kMideleg, kStie, Privilege::kMachine);
  m.core.write_csr(csr::kMie, kStie, Privilege::kMachine);
  m.core.write_csr(csr::kStvec, s_handler, Privilege::kSupervisor);
  // Raise STIP by software (how an M-mode timer handler forwards ticks).
  m.core.write_csr(csr::kMip, kStie, Privilege::kMachine);

  Assembler u(kDramBase);
  auto loop = u.make_label();
  u.bind(loop);
  u.j(loop);
  m.core.load_code(kDramBase, u.finish());
  Assembler h(s_handler);
  h.ebreak();
  m.core.load_code(s_handler, h.finish());

  m.core.set_priv(Privilege::kUser);
  const StepResult r = m.core.run(100);
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.core.priv(), Privilege::kSupervisor);
  EXPECT_EQ(*m.core.read_csr(csr::kScause, Privilege::kSupervisor),
            csr::irq::kCauseInterrupt | csr::irq::kSti);
}

TEST(Interrupt, DelegatedInterruptNotTakenInMachineMode) {
  Machine m;
  m.core.write_csr(csr::kMideleg, kStie, Privilege::kMachine);
  m.core.write_csr(csr::kMie, kStie, Privilege::kMachine);
  m.core.write_csr(csr::kMip, kStie, Privilege::kMachine);
  // Running in M: the S-targeted interrupt must stay pending, not fire.
  const auto r = m.run_program([](auto& a) {
    for (int i = 0; i < 10; ++i) a.nop();
    a.ebreak();
  });
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.core.merged_stats().get("core.interrupts"), 0u);
}

TEST(Interrupt, WfiCompletesWhenInterruptPending) {
  Machine m;
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  m.core.write_csr(csr::kMtimecmp, 0, Privilege::kMachine);  // Pending now.
  // mstatus.MIE clear: the interrupt cannot be *taken*, but wfi must still
  // fall through because one is pending.
  const auto r = m.run_program([](auto& a) {
    a.wfi();
    a.li(Reg::kA0, 1);
    a.ebreak();
  });
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m.reg(Reg::kA0), 1u);
}

TEST(Interrupt, WfiHaltsWhenNothingPending) {
  Machine m;
  const auto r = m.run_program([](auto& a) { a.wfi(); });
  EXPECT_EQ(r.stop, StopReason::kWfi);
}

TEST(Interrupt, WritingMtimecmpClearsPending) {
  Machine m;
  m.core.write_csr(csr::kMtimecmp, 0, Privilege::kMachine);
  m.core.write_csr(csr::kMie, kMtie, Privilege::kMachine);
  EXPECT_TRUE([&] {
    m.core.run(1);  // Updates MTIP.
    return (*m.core.read_csr(csr::kMip, Privilege::kMachine) >> csr::irq::kMti) & 1;
  }());
  m.core.write_csr(csr::kMtimecmp, ~u64{0}, Privilege::kMachine);
  EXPECT_FALSE((*m.core.read_csr(csr::kMip, Privilege::kMachine) >>
                csr::irq::kMti) & 1);
}

}  // namespace
}  // namespace ptstore
