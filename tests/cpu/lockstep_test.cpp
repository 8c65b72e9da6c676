// Lockstep oracle for the block-granular dispatch path (harness/lockstep.h).
// A decode-cache core runs whole blocks through Core::run_block(), a
// classic core and a one-step decode-cache core step alongside, and after
// every return the step result, the architectural state and every counter
// must agree. The fixed scenarios aim at what the fetch memo, the block
// guards and the run's stop rules key on: ITLB eviction, superpages,
// satp/ASID switches, sfence.vma, interrupts, RVC and page-straddling
// parcels, self-modifying code, PMP writes and checkpoint restores. The
// seeded programs mix loads, stores, branches, calls, in-block code patches
// and timer interrupts in M, S and U mode.
#include <functional>
#include <map>
#include <string>

#include "cpu_test_util.h"
#include "harness/lockstep.h"
#include "isa/csr.h"
#include "mmu/pte.h"

namespace ptstore {
namespace {

using isa::Assembler;
using isa::Reg;
namespace csr = isa::csr;

constexpr u64 kUserRx = pte::kV | pte::kR | pte::kX | pte::kU | pte::kA;
constexpr u64 kUserRw = pte::kV | pte::kR | pte::kW | pte::kU | pte::kA | pte::kD;
constexpr u64 kUserRwx = kUserRw | pte::kX;
constexpr u64 kKernRx = pte::kV | pte::kR | pte::kX | pte::kA;
constexpr u64 kKernRw = pte::kV | pte::kR | pte::kW | pte::kA | pte::kD;

constexpr VirtAddr kCodeVa = 0x10'0000;
constexpr VirtAddr kDataVa = 0x4000'0000;
constexpr PhysAddr kHandler = kDramBase + MiB(1);  ///< M-mode trap handler (bare).

// RVC parcels (see tests/isa/rvc_test.cpp for the encodings).
constexpr u32 kCNop = 0x0001;       // c.nop
constexpr u32 kCAddiA0_1 = 0x0505;  // c.addi a0, 1
constexpr u32 kCLiA5_1 = 0x4785;    // c.li a5, 1
constexpr u32 kCAddA0A1 = 0x952E;   // c.add a0, a1

u32 encode(const std::function<void(Assembler&)>& one) {
  Assembler a(0);
  one(a);
  return a.finish().at(0);
}

class Lockstep : public ::testing::Test {
 protected:
  /// Run until a halt or `max_steps` steps, comparing after every
  /// run_block() return. Returns the steps taken.
  u64 run(u64 max_steps) {
    const harness::Lockstep::Outcome out = ls_.run(max_steps);
    EXPECT_EQ(out.divergence, "");
    return out.steps;
  }

  /// Common end-of-scenario checks: the run halted and the decode-cache
  /// core really dispatched from its blocks.
  void expect_halted_and_same(u64 steps, u64 max_steps) {
    EXPECT_LT(steps, max_steps) << "scenario did not halt";
    EXPECT_GT(ls_.fast().core.merged_stats().get("bbcache.hits"), 0u);
  }

  u64 reg(Reg r) { return ls_.classic().core.reg(isa::regno(r)); }
  u64 counter(const char* name) { return ls_.classic().core.merged_stats().get(name); }
  u64 csr_value(u32 num) {
    return *ls_.classic().core.read_csr(num, Privilege::kMachine);
  }

  harness::Lockstep ls_;
};

TEST_F(Lockstep, UserCodeAcrossMoreThan32Pages) {
  // 40 code pages chained by jal (the ITLB holds 32) touching 12 data pages
  // (the DTLB holds 8), three times round.
  constexpr unsigned kCodePages = 40;
  constexpr unsigned kDataPages = 12;
  const PhysAddr root = ls_.new_table();
  Assembler a(kCodeVa);
  std::vector<Assembler::Label> page(kCodePages);
  for (auto& l : page) l = a.make_label();
  auto done = a.make_label();
  a.li(Reg::kS2, 3);
  for (unsigned p = 0; p < kCodePages; ++p) {
    while (a.pc() < kCodeVa + p * kPageSize) a.emit(0);
    a.bind(page[p]);
    a.li(Reg::kS1, kDataVa + (p % kDataPages) * kPageSize + 8 * p);
    a.addi(Reg::kS0, Reg::kS0, 1);
    a.sd(Reg::kS0, Reg::kS1, 0);
    a.ld(Reg::kT1, Reg::kS1, 0);
    a.add(Reg::kS3, Reg::kS3, Reg::kT1);
    if (p + 1 < kCodePages) a.jal(Reg::kZero, page[p + 1]);
  }
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.beqz(Reg::kS2, done);
  a.j(page[0]);
  a.bind(done);
  a.ebreak();
  ls_.map_code(root, kCodeVa, a.finish(), kUserRx);
  for (unsigned d = 0; d < kDataPages; ++d) {
    ls_.map(root, kDataVa + d * kPageSize, ls_.frame(), kUserRw);
  }
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ls_.start(kCodeVa, Privilege::kUser);

  const u64 steps = run(50'000);
  expect_halted_and_same(steps, 50'000);
  EXPECT_EQ(reg(Reg::kS0), 3u * kCodePages);
  EXPECT_GT(counter("ITLB.fills"), 2u * kCodePages);  // Evicted and refilled.
  EXPECT_GT(counter("DTLB.fills"), 2u * kDataPages);
}

TEST_F(Lockstep, SuperpageCodeAndData) {
  // One 2 MiB leaf maps code on three 4 KiB pages plus the data they store.
  constexpr VirtAddr kSuperVa = 0x20'0000;
  const PhysAddr root = ls_.new_table();
  Assembler a(kSuperVa);
  auto loop = a.make_label();
  auto f1 = a.make_label();
  auto f2 = a.make_label();
  a.li(Reg::kS2, 5);
  a.li(Reg::kS1, kSuperVa + 3 * kPageSize);
  a.bind(loop);
  a.jal(Reg::kRa, f1);
  a.jal(Reg::kRa, f2);
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();
  while (a.pc() < kSuperVa + kPageSize) a.emit(0);
  a.bind(f1);
  a.addi(Reg::kS0, Reg::kS0, 1);
  a.sd(Reg::kS0, Reg::kS1, 0);
  a.ret();
  while (a.pc() < kSuperVa + 2 * kPageSize) a.emit(0);
  a.bind(f2);
  a.ld(Reg::kT0, Reg::kS1, 0);
  a.add(Reg::kS3, Reg::kS3, Reg::kT0);
  a.ret();
  const PhysAddr super_pa = kDramBase + MiB(32);
  ls_.load(super_pa, a.finish());
  ls_.map(root, kSuperVa, super_pa, kUserRwx, /*level=*/1);
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ls_.start(kSuperVa, Privilege::kUser);

  const u64 steps = run(10'000);
  expect_halted_and_same(steps, 10'000);
  EXPECT_EQ(reg(Reg::kS0), 5u);
  EXPECT_EQ(reg(Reg::kS3), 15u);
  EXPECT_EQ(counter("ITLB.fills"), 1u);  // One entry covers all three pages.
}

TEST_F(Lockstep, SatpSwitchAsidsAndSfenceVma) {
  // S-mode code shared by two address spaces (ASIDs 1 and 2) calls F, which
  // each space maps to its own frame, switches satp back and forth, remaps
  // F through a store to its own page table, and flushes with sfence.vma.
  constexpr VirtAddr kF = 0x20'0000;
  constexpr VirtAddr kD = 0x30'0000;
  constexpr VirtAddr kT = 0x40'0000;  // Window onto root1's leaf table for F.
  const PhysAddr root1 = ls_.new_table();
  const PhysAddr root2 = ls_.new_table();
  const PhysAddr f1 = ls_.frame();
  const PhysAddr f2 = ls_.frame();
  for (const auto& [frame_pa, value] : {std::pair{f1, 1}, std::pair{f2, 2}}) {
    Assembler a(kF);
    a.addi(Reg::kA0, Reg::kZero, value);
    a.ret();
    ls_.load(frame_pa, a.finish());
  }
  const PhysAddr d1 = ls_.frame();
  const PhysAddr d2 = ls_.frame();
  ls_.poke(d1, 111);
  ls_.poke(d2, 222);
  ls_.map(root1, kF, f1, kKernRx);
  ls_.map(root2, kF, f2, kKernRx);
  ls_.map(root1, kD, d1, kKernRw);
  ls_.map(root2, kD, d2, kKernRw);
  const PhysAddr f_slot = ls_.slot(root1, kF);
  ls_.map(root1, kT, align_down(f_slot, kPageSize), kKernRw);

  Assembler a(kCodeVa);
  a.li(Reg::kT0, harness::Lockstep::sv39(root2, 2));
  a.li(Reg::kT1, harness::Lockstep::sv39(root1, 1));
  a.li(Reg::kT2, pte::make_from_pa(f2, kKernRx));
  a.li(Reg::kT4, kF);
  a.li(Reg::kS7, kD);
  a.li(Reg::kS8, kT + (f_slot & kPageMask));
  a.jalr(Reg::kRa, Reg::kT4, 0);
  a.mv(Reg::kS1, Reg::kA0);                  // 1
  a.ld(Reg::kS2, Reg::kS7, 0);               // 111
  a.csrrw(Reg::kZero, csr::kSatp, Reg::kT0);
  a.jalr(Reg::kRa, Reg::kT4, 0);
  a.mv(Reg::kS3, Reg::kA0);                  // 2
  a.ld(Reg::kS4, Reg::kS7, 0);               // 222
  a.csrrw(Reg::kZero, csr::kSatp, Reg::kT1);
  a.jalr(Reg::kRa, Reg::kT4, 0);
  a.mv(Reg::kS5, Reg::kA0);                  // 1: ASID 1's entry survived
  a.sd(Reg::kT2, Reg::kS8, 0);               // Remap F (root1) to f2.
  a.jalr(Reg::kRa, Reg::kT4, 0);
  a.mv(Reg::kS6, Reg::kA0);                  // 1: stale ITLB entry
  a.sfence_vma(Reg::kT4, Reg::kZero);
  a.jalr(Reg::kRa, Reg::kT4, 0);
  a.mv(Reg::kS9, Reg::kA0);                  // 2: the walk sees the remap
  a.sfence_vma();
  a.jalr(Reg::kRa, Reg::kT4, 0);
  a.mv(Reg::kS10, Reg::kA0);                 // 2
  a.ebreak();
  const PhysAddr code = ls_.frame();
  ls_.load(code, a.finish());
  ls_.map(root1, kCodeVa, code, kKernRx);
  ls_.map(root2, kCodeVa, code, kKernRx);
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root1, 1)));
  ls_.start(kCodeVa, Privilege::kSupervisor);

  const u64 steps = run(1'000);
  expect_halted_and_same(steps, 1'000);
  EXPECT_EQ(reg(Reg::kS1), 1u);
  EXPECT_EQ(reg(Reg::kS2), 111u);
  EXPECT_EQ(reg(Reg::kS3), 2u);
  EXPECT_EQ(reg(Reg::kS4), 222u);
  EXPECT_EQ(reg(Reg::kS5), 1u);
  EXPECT_EQ(reg(Reg::kS6), 1u);
  EXPECT_EQ(reg(Reg::kS9), 2u);
  EXPECT_EQ(reg(Reg::kS10), 2u);
}

TEST_F(Lockstep, SretToUserWithinSupervisorPage) {
  // sret drops to U-mode at a PC in the same supervisor-only page, with no
  // fetch from another page in between: the U-mode fetch must page-fault
  // (delegated to the S-mode handler, which halts) even though the previous
  // fetch of that page, in S-mode, passed.
  const PhysAddr root = ls_.new_table();
  Assembler a(kCodeVa);
  auto user = a.make_label();
  a.li(Reg::kT0, kCodeVa + 0x100);
  a.csrrw(Reg::kZero, csr::kSepc, Reg::kT0);
  a.sret();  // sstatus.SPP is 0: return to U.
  while (a.pc() < kCodeVa + 0x100) a.emit(0);
  a.bind(user);
  a.addi(Reg::kA0, Reg::kZero, 1);
  a.ebreak();
  ls_.map_code(root, kCodeVa, a.finish(), kKernRx);
  constexpr VirtAddr kHandlerVa = 0x20'0000;
  Assembler h(kHandlerVa);
  h.csrrs(Reg::kS1, csr::kScause, Reg::kZero);
  h.ebreak();
  ls_.map_code(root, kHandlerVa, h.finish(), kKernRx);
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ASSERT_TRUE(ls_.set_csr(csr::kStvec, kHandlerVa));
  ASSERT_TRUE(ls_.set_csr(
      csr::kMedeleg, u64{1} << static_cast<u64>(isa::TrapCause::kInstPageFault)));
  ls_.start(kCodeVa, Privilege::kSupervisor);

  const u64 steps = run(100);
  expect_halted_and_same(steps, 100);
  EXPECT_EQ(reg(Reg::kA0), 0u);
  EXPECT_EQ(reg(Reg::kS1), static_cast<u64>(isa::TrapCause::kInstPageFault));
}

TEST_F(Lockstep, TimerInterruptsMidBlock) {
  // A long straight-line U-mode loop body under a timer that the M-mode
  // handler re-arms every 37 cycles, so interrupts land inside blocks.
  const PhysAddr root = ls_.new_table();
  Assembler a(kCodeVa);
  auto loop = a.make_label();
  a.li(Reg::kS2, 40);
  a.bind(loop);
  for (int i = 0; i < 10; ++i) {
    a.addi(Reg::kS0, Reg::kS0, 1);
    a.xor_(Reg::kS3, Reg::kS3, Reg::kS0);
    a.add(Reg::kS4, Reg::kS4, Reg::kS3);
  }
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();  // mtvec is set: traps to the handler, which stops.
  ls_.map_code(root, kCodeVa, a.finish(), kUserRx);

  Assembler h(kHandler);
  auto stop = h.make_label();
  h.csrrs(Reg::kT5, csr::kMcause, Reg::kZero);
  h.bge(Reg::kT5, Reg::kZero, stop);  // Not an interrupt.
  h.csrrs(Reg::kT6, csr::kTime, Reg::kZero);
  h.addi(Reg::kT6, Reg::kT6, 37);
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.csrrs(Reg::kT5, csr::kMscratch, Reg::kZero);
  h.addi(Reg::kT5, Reg::kT5, 1);
  h.csrrw(Reg::kZero, csr::kMscratch, Reg::kT5);
  h.mret();
  h.bind(stop);
  h.addi(Reg::kT6, Reg::kZero, -1);
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.wfi();
  ls_.load(kHandler, h.finish());

  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ASSERT_TRUE(ls_.set_csr(csr::kMtvec, kHandler));
  ASSERT_TRUE(ls_.set_csr(csr::kMie, u64{1} << csr::irq::kMti));
  ASSERT_TRUE(ls_.set_csr(csr::kMtimecmp, 41));
  ls_.start(kCodeVa, Privilege::kUser);

  const u64 steps = run(20'000);
  expect_halted_and_same(steps, 20'000);
  EXPECT_EQ(reg(Reg::kS0), 400u);
  EXPECT_GT(csr_value(csr::kMscratch), 20u);
  EXPECT_EQ(counter("core.interrupts"), csr_value(csr::kMscratch));
}

TEST_F(Lockstep, CompressedAndPageStraddlingParcels) {
  // RVC parcels mixed with 32-bit encodings at 2-byte offsets, including
  // ones that cross a 64 B line and one that straddles two VA pages mapped
  // to non-adjacent frames.
  const u32 add = encode([](Assembler& x) { x.add(Reg::kT1, Reg::kT1, Reg::kA5); });
  const PhysAddr root = ls_.new_table();
  Assembler a(kCodeVa);
  auto loop = a.make_label();
  a.li(Reg::kS2, 20);
  a.li(Reg::kA1, 3);
  a.j(loop);
  while (a.pc() < kCodeVa + kPageSize - 0x40) a.emit(0);
  a.bind(loop);
  a.emit(kCAddiA0_1 | kCNop << 16);
  // (c.li | add.lo), (add.hi | c.add) pairs until the page's last word, then
  // the same pairs on the next page.
  for (int i = 0; i < 24; ++i) {
    a.emit(kCLiA5_1 | (add & 0xFFFF) << 16);
    a.emit(add >> 16 | kCAddA0A1 << 16);
  }
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();
  ls_.map_code(root, kCodeVa, a.finish(), kUserRx);
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ls_.start(kCodeVa, Privilege::kUser);

  const u64 steps = run(10'000);
  expect_halted_and_same(steps, 10'000);
  EXPECT_EQ(reg(Reg::kT1), 20u * 24);
  EXPECT_EQ(reg(Reg::kA0), 20u * (1 + 24 * 3));
}

TEST_F(Lockstep, SelfModifyingCodeThroughAlias) {
  // U-mode code patches the function it calls through a writable alias of
  // its own (read/execute-only) page; no fence.i.
  constexpr VirtAddr kAliasVa = 0x50'0000;
  constexpr u64 kFnOff = 0x200;
  const PhysAddr root = ls_.new_table();
  const PhysAddr code = ls_.frame();
  Assembler a(kCodeVa);
  auto loop = a.make_label();
  auto fn = a.make_label();
  a.li(Reg::kS1, kAliasVa + kFnOff);
  a.li(Reg::kT2, encode([](Assembler& x) { x.addi(Reg::kA0, Reg::kZero, 42); }));
  a.li(Reg::kT3, u64{1} << 20);  // +1 in addi's immediate field.
  a.li(Reg::kS2, 3);
  a.bind(loop);
  a.jal(Reg::kRa, fn);
  a.add(Reg::kS0, Reg::kS0, Reg::kA0);
  a.sw(Reg::kT2, Reg::kS1, 0);
  a.add(Reg::kT2, Reg::kT2, Reg::kT3);
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();
  while (a.pc() < kCodeVa + kFnOff) a.emit(0);
  a.bind(fn);
  a.addi(Reg::kA0, Reg::kZero, 7);
  a.ret();
  ls_.load(code, a.finish());
  ls_.map(root, kCodeVa, code, kUserRx);
  ls_.map(root, kAliasVa, code, kUserRw);
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ls_.start(kCodeVa, Privilege::kUser);

  const u64 steps = run(1'000);
  expect_halted_and_same(steps, 1'000);
  EXPECT_EQ(reg(Reg::kS0), 7u + 42 + 43);
}

TEST_F(Lockstep, PmpReprogramming) {
  // U-mode code calls G, whose frame has its own TOR entry. An ecall makes
  // the M-mode handler drop X from that entry; the next call takes an
  // instruction access fault, and the handler restores X and retries it.
  const PhysAddr root = ls_.new_table();
  const PhysAddr g = ls_.frame();
  constexpr VirtAddr kG = 0x20'0000;
  {
    Assembler a(kG);
    a.addi(Reg::kA0, Reg::kZero, 5);
    a.ret();
    ls_.load(g, a.finish());
  }
  ls_.map(root, kG, g, kUserRx);
  Assembler a(kCodeVa);
  auto loop = a.make_label();
  a.li(Reg::kS2, 3);
  a.li(Reg::kS3, kG);
  a.bind(loop);
  a.jalr(Reg::kRa, Reg::kS3, 0);
  a.add(Reg::kS0, Reg::kS0, Reg::kA0);
  a.ecall();
  a.jalr(Reg::kRa, Reg::kS3, 0);
  a.add(Reg::kS0, Reg::kS0, Reg::kA0);
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();
  ls_.map_code(root, kCodeVa, a.finish(), kUserRx);

  constexpr u64 kTorRwx =
      (u64{1} << pmpcfg::kAShift) | pmpcfg::kR | pmpcfg::kW | pmpcfg::kX;
  constexpr u64 kTorRw = kTorRwx & ~u64{pmpcfg::kX};
  constexpr u64 kCfgX = kTorRwx | kTorRwx << 8 | kTorRwx << 16;
  constexpr u64 kCfgNoX = kTorRwx | kTorRw << 8 | kTorRwx << 16;
  Assembler h(kHandler);
  auto on_ecall = h.make_label();
  auto on_fault = h.make_label();
  h.csrrs(Reg::kT5, csr::kMcause, Reg::kZero);
  h.li(Reg::kT6, static_cast<u64>(isa::TrapCause::kEcallFromU));
  h.beq(Reg::kT5, Reg::kT6, on_ecall);
  h.li(Reg::kT6, static_cast<u64>(isa::TrapCause::kInstAccessFault));
  h.beq(Reg::kT5, Reg::kT6, on_fault);
  h.wfi();
  h.bind(on_ecall);
  h.li(Reg::kT6, kCfgNoX);
  h.csrrw(Reg::kZero, csr::kPmpcfg0, Reg::kT6);
  h.csrrs(Reg::kT6, csr::kMepc, Reg::kZero);
  h.addi(Reg::kT6, Reg::kT6, 4);
  h.csrrw(Reg::kZero, csr::kMepc, Reg::kT6);
  h.mret();
  h.bind(on_fault);
  h.li(Reg::kT6, kCfgX);
  h.csrrw(Reg::kZero, csr::kPmpcfg0, Reg::kT6);
  h.csrrs(Reg::kT4, csr::kMscratch, Reg::kZero);
  h.addi(Reg::kT4, Reg::kT4, 1);
  h.csrrw(Reg::kZero, csr::kMscratch, Reg::kT4);
  h.mret();
  ls_.load(kHandler, h.finish());

  ASSERT_TRUE(ls_.set_csr(csr::kPmpaddr0, g >> 2));
  ASSERT_TRUE(ls_.set_csr(csr::kPmpaddr0 + 1, (g + kPageSize) >> 2));
  ASSERT_TRUE(ls_.set_csr(csr::kPmpaddr0 + 2, ls_.fast().mem.dram_end() >> 2));
  ASSERT_TRUE(ls_.set_csr(csr::kPmpcfg0, kCfgX));
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ASSERT_TRUE(ls_.set_csr(csr::kMtvec, kHandler));
  ls_.start(kCodeVa, Privilege::kUser);

  const u64 steps = run(2'000);
  expect_halted_and_same(steps, 2'000);
  EXPECT_EQ(reg(Reg::kS0), 30u);
  EXPECT_EQ(csr_value(csr::kMscratch), 3u);
}

TEST_F(Lockstep, RestoreArchStateMidRun) {
  // A checkpoint (frames + arch state) taken mid-run and restored later, as
  // System checkpoints do; both cores resume from cold microarchitecture.
  const PhysAddr root = ls_.new_table();
  Assembler a(kCodeVa);
  auto loop = a.make_label();
  a.li(Reg::kS1, kDataVa);
  a.li(Reg::kS2, 60);
  a.bind(loop);
  a.ld(Reg::kT0, Reg::kS1, 0);
  a.addi(Reg::kT0, Reg::kT0, 3);
  a.sd(Reg::kT0, Reg::kS1, 0);
  a.add(Reg::kS0, Reg::kS0, Reg::kT0);
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();
  ls_.map_code(root, kCodeVa, a.finish(), kUserRx);
  ls_.map(root, kDataVa, ls_.frame(), kUserRw);
  ASSERT_TRUE(ls_.set_csr(csr::kSatp, harness::Lockstep::sv39(root, 1)));
  ls_.start(kCodeVa, Privilege::kUser);

  ASSERT_EQ(run(100), 100u);
  std::vector<CoreArchState> saved;
  std::vector<std::vector<std::pair<u64, std::vector<u8>>>> frames;
  ls_.each([&](PhysMem& m, Core& c) {
    saved.push_back(c.arch_state());
    frames.push_back(m.snapshot_frames());
  });
  ASSERT_EQ(run(150), 150u);
  size_t i = 0;
  ls_.each([&](PhysMem& m, Core& c) {
    m.restore_frames(frames[i]);
    c.restore_arch_state(saved[i]);
    ++i;
  });
  const u64 steps = run(2'000);
  expect_halted_and_same(steps, 2'000);
  EXPECT_EQ(reg(Reg::kS0), 3u * 60 * 61 / 2);
}

TEST_F(Lockstep, PatchedSuccessorOnAnotherPage) {
  // M-mode (bare) code whose loop block X calls Y on the next page, so
  // after the first round every run chains from X into Y. On the last
  // round X stores a new first word into Y just before the call: Y's frame
  // changed but X's did not, so only Y's own guard stops the chain.
  constexpr PhysAddr kX = kDramBase + MiB(2);
  constexpr PhysAddr kY = kX + kPageSize;
  constexpr PhysAddr kData = kDramBase + MiB(3);
  Assembler y(kY);
  y.addi(Reg::kA0, Reg::kA0, 1);
  y.ret();
  Assembler a(kX);
  auto loop = a.make_label();
  a.li(Reg::kS2, 5);
  a.li(Reg::kS6, encode([](Assembler& x) { x.addi(Reg::kA0, Reg::kA0, 100); }));
  a.li(Reg::kS7, kY);
  a.li(Reg::kS8, kData);
  a.bind(loop);
  // t5 = kY on the last round (s2 == 1), else kData.
  a.addi(Reg::kT4, Reg::kS2, -1);
  a.seqz(Reg::kT4, Reg::kT4);
  a.neg(Reg::kT4, Reg::kT4);
  a.sub(Reg::kT5, Reg::kS7, Reg::kS8);
  a.and_(Reg::kT5, Reg::kT5, Reg::kT4);
  a.add(Reg::kT5, Reg::kT5, Reg::kS8);
  a.sw(Reg::kS6, Reg::kT5, 0);
  a.jalr(Reg::kRa, Reg::kS7, 0);
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bnez(Reg::kS2, loop);
  a.ebreak();
  ls_.load(kX, a.finish());
  ls_.load(kY, y.finish());
  ls_.start(kX, Privilege::kMachine);

  const u64 steps = run(1'000);
  expect_halted_and_same(steps, 1'000);
  EXPECT_EQ(reg(Reg::kA0), 4u + 100);
}

// Seeded programs, each in lockstep from its first instruction to its halt.
// The fast core's budget per call, and whether run_block() or Core::run()
// takes it, vary with the seed, so runs also end on an exhausted budget
// mid-block and inside Core::run().
TEST(LockstepSeeded, ProgramsAgreeFromStartToHalt) {
  constexpr u64 kPrograms = 240;
  u64 interrupts = 0;
  u64 invalidations = 0;
  u64 itlb_hits = 0;
  std::map<Privilege, unsigned> modes;
  for (u64 seed = 1; seed <= kPrograms; ++seed) {
    harness::Lockstep ls;
    const harness::SeededProgram p = harness::setup_seeded_program(ls, seed);
    const auto call = seed % 4 == 0 ? harness::Lockstep::Call::kCoreRun
                                    : harness::Lockstep::Call::kRunBlock;
    const harness::Lockstep::Outcome out = ls.run(p.max_steps, p.chunk, call);
    ASSERT_EQ(out.divergence, "") << "seed " << seed;
    ASSERT_TRUE(out.halted) << "seed " << seed;
    // It halted at its closing ebreak, not on a stray trap.
    ASSERT_EQ(*ls.classic().core.read_csr(csr::kMcause, Privilege::kMachine),
              static_cast<u64>(isa::TrapCause::kBreakpoint))
        << "seed " << seed;
    const StatSet s = ls.fast().core.merged_stats();
    interrupts += s.get("core.interrupts");
    invalidations += s.get("bbcache.invalidations");
    itlb_hits += s.get("ITLB.hits");
    ++modes[p.priv];
  }
  // The draws reach what the run's stop rules guard: timers firing inside
  // blocks, blocks patched while running, and the fetch memo under Sv39.
  EXPECT_GT(interrupts, kPrograms);
  EXPECT_GT(invalidations, kPrograms);
  EXPECT_GT(itlb_hits, 0u);
  EXPECT_EQ(modes.size(), 3u);
  for (const auto& [priv, n] : modes) EXPECT_GT(n, kPrograms / 5);
}

}  // namespace
}  // namespace ptstore
