// End-to-end ISA semantics of ld.pt / sd.pt on the core, with PMP secure
// regions programmed through the CSR interface — the paper's Fig. 1 access
// matrix executed as real machine code.
#include "cpu_test_util.h"

namespace ptstore {
namespace {

using testutil::Machine;
using isa::Assembler;
using isa::Reg;
namespace csr = isa::csr;

class PtInsnTest : public ::testing::Test {
 protected:
  PtInsnTest() : m_(MiB(32), /*ptstore=*/true) { program_pmp(); }

  /// pmp0 TOR [0, sr_base) RWX; pmp1 TOR [sr_base, dram_end) RW+S.
  void program_pmp() {
    sr_base_ = m_.mem.dram_end() - MiB(4);
    m_.core.write_csr(csr::kPmpaddr0, sr_base_ >> 2, Privilege::kMachine);
    m_.core.write_csr(csr::kPmpaddr0 + 1, m_.mem.dram_end() >> 2, Privilege::kMachine);
    const u64 tor = static_cast<u64>(PmpMatch::kTor) << pmpcfg::kAShift;
    const u64 cfg0 = pmpcfg::kR | pmpcfg::kW | pmpcfg::kX | tor;
    const u64 cfg1 = pmpcfg::kR | pmpcfg::kW | pmpcfg::kS | tor;
    m_.core.write_csr(csr::kPmpcfg0, cfg0 | (cfg1 << 8), Privilege::kMachine);
  }

  /// Run `build` in S-mode until halt or first trap.
  StepResult run_smode(const std::function<void(Assembler&)>& build) {
    Assembler a(m_.core.config().reset_pc);
    build(a);
    m_.core.load_code(m_.core.config().reset_pc, a.finish());
    m_.core.set_pc(m_.core.config().reset_pc);
    m_.core.set_priv(Privilege::kSupervisor);
    for (int i = 0; i < 200; ++i) {
      const StepResult r = m_.core.step();
      if (r.stop != StopReason::kNone) return r;
    }
    return {};
  }

  Machine m_;
  PhysAddr sr_base_ = 0;
};

TEST_F(PtInsnTest, SdPtLdPtRoundTripInSecureRegion) {
  const PhysAddr slot = sr_base_ + 0x100;
  const StepResult r = run_smode([&](Assembler& a) {
    a.li(Reg::kS0, slot);
    a.li(Reg::kT0, 0xFEEDFACE);
    a.sd_pt(Reg::kT0, Reg::kS0, 0);
    a.ld_pt(Reg::kA0, Reg::kS0, 0);
    a.ebreak();
  });
  EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
  EXPECT_EQ(m_.core.reg(10), 0xFEEDFACEu);
  EXPECT_EQ(m_.mem.read_u64(slot), 0xFEEDFACEu);
  EXPECT_EQ(m_.core.merged_stats().get("core.sd_pt"), 1u);
  EXPECT_EQ(m_.core.merged_stats().get("core.ld_pt"), 1u);
}

TEST_F(PtInsnTest, RegularStoreToSecureRegionFaults) {
  const StepResult r = run_smode([&](Assembler& a) {
    a.li(Reg::kS0, sr_base_ + 0x100);
    a.sd(Reg::kZero, Reg::kS0, 0);
  });
  EXPECT_EQ(r.stop, StopReason::kTrapped);
  EXPECT_EQ(r.trap, isa::TrapCause::kStoreAccessFault);
}

TEST_F(PtInsnTest, RegularLoadFromSecureRegionFaults) {
  const StepResult r = run_smode([&](Assembler& a) {
    a.li(Reg::kS0, sr_base_ + 0x100);
    a.ld(Reg::kA0, Reg::kS0, 0);
  });
  EXPECT_EQ(r.trap, isa::TrapCause::kLoadAccessFault);
}

TEST_F(PtInsnTest, PtInsnOutsideSecureRegionFaults) {
  const StepResult r = run_smode([&](Assembler& a) {
    a.li(Reg::kS0, kDramBase + MiB(1));
    a.sd_pt(Reg::kZero, Reg::kS0, 0);
  });
  EXPECT_EQ(r.trap, isa::TrapCause::kStoreAccessFault);

  const StepResult r2 = run_smode([&](Assembler& a) {
    a.li(Reg::kS0, kDramBase + MiB(1));
    a.ld_pt(Reg::kA0, Reg::kS0, 0);
  });
  EXPECT_EQ(r2.trap, isa::TrapCause::kLoadAccessFault);
}

TEST_F(PtInsnTest, PtInsnIllegalInUserMode) {
  Assembler a(m_.core.config().reset_pc);
  a.ld_pt(Reg::kA0, Reg::kS0, 0);
  m_.core.load_code(m_.core.config().reset_pc, a.finish());
  m_.core.set_priv(Privilege::kUser);
  EXPECT_EQ(m_.core.step().trap, isa::TrapCause::kIllegalInst);
}

TEST_F(PtInsnTest, ExecuteFromSecureRegionFaults) {
  // Jump into the secure region: instruction fetch is a regular access.
  const StepResult r = run_smode([&](Assembler& a) {
    a.li(Reg::kT0, sr_base_);
    a.jalr(Reg::kZero, Reg::kT0, 0);
  });
  EXPECT_EQ(r.trap, isa::TrapCause::kInstAccessFault);
}

TEST_F(PtInsnTest, MisalignedPtAccessFaults) {
  const StepResult r = run_smode([&](Assembler& a) {
    a.li(Reg::kS0, sr_base_ + 0x101);
    a.sd_pt(Reg::kZero, Reg::kS0, 0);
  });
  EXPECT_EQ(r.trap, isa::TrapCause::kStoreAddrMisaligned);
}

TEST(PtInsnBaseline, OpcodesIllegalWhenPtStoreDisabled) {
  // The unmodified core does not implement the custom opcodes at all.
  Machine m(MiB(32), /*ptstore=*/false);
  Assembler a(m.core.config().reset_pc);
  a.ld_pt(Reg::kA0, Reg::kS0, 0);
  m.core.load_code(m.core.config().reset_pc, a.finish());
  m.core.set_priv(Privilege::kSupervisor);
  EXPECT_EQ(m.core.step().trap, isa::TrapCause::kIllegalInst);
}

TEST(PtInsnBaseline, SBitIgnoredWhenPtStoreDisabled) {
  // Writing pmpcfg with the S-bit on a baseline core must not create a
  // secure region (the bit is reserved-zero).
  Machine m(MiB(32), /*ptstore=*/false);
  const PhysAddr sr = m.mem.dram_end() - MiB(4);
  m.core.write_csr(csr::kPmpaddr0, sr >> 2, Privilege::kMachine);
  m.core.write_csr(csr::kPmpaddr0 + 1, m.mem.dram_end() >> 2, Privilege::kMachine);
  const u64 tor = static_cast<u64>(PmpMatch::kTor) << pmpcfg::kAShift;
  m.core.write_csr(csr::kPmpcfg0,
                   (pmpcfg::kR | pmpcfg::kW | pmpcfg::kX | tor) |
                       ((pmpcfg::kR | pmpcfg::kW | pmpcfg::kS | tor) << 8),
                   Privilege::kMachine);
  EXPECT_FALSE(m.core.pmp().is_secure(sr + 0x100, 8));
  // Regular stores to the would-be secure region sail through.
  const MemAccessResult r = m.core.access_as(sr + 0x100, 8, AccessType::kWrite,
                                             AccessKind::kRegular,
                                             Privilege::kSupervisor, 1);
  EXPECT_TRUE(r.ok);
}

TEST_F(PtInsnTest, SatpSBitClearedOnBaselineWrite) {
  Machine base(MiB(32), /*ptstore=*/false);
  const u64 v = isa::satp::make(isa::satp::kModeSv39, 1, 0x1234, true);
  base.core.write_csr(csr::kSatp, v, Privilege::kSupervisor);
  EXPECT_FALSE(isa::satp::secure_check(base.core.mmu().satp()));
  // The PTStore core preserves it.
  m_.core.write_csr(csr::kSatp, v, Privilege::kSupervisor);
  EXPECT_TRUE(isa::satp::secure_check(m_.core.mmu().satp()));
}

TEST_F(PtInsnTest, PmpCsrReadbackRoundTrips) {
  const u64 cfg = *m_.core.read_csr(csr::kPmpcfg0, Privilege::kMachine);
  EXPECT_EQ(cfg & 0xFF, u64(pmpcfg::kR | pmpcfg::kW | pmpcfg::kX |
                            (static_cast<u64>(PmpMatch::kTor) << pmpcfg::kAShift)));
  EXPECT_TRUE((cfg >> 8) & pmpcfg::kS);
  EXPECT_EQ(*m_.core.read_csr(csr::kPmpaddr0, Privilege::kMachine), sr_base_ >> 2);
}

}  // namespace
}  // namespace ptstore
