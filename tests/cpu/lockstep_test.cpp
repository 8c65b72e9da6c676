// Lockstep oracle for the decode-cache step path. Two machines get the same
// memory image, CSRs and start state; one core runs with the decode cache
// (fetch memo, block dispatch) and one runs the classic fetch/decode path.
// After every step both must agree on the step result, the architectural
// state and every merged_stats() counter (bbcache.* aside: only the
// decode-cache core publishes those). The scenarios aim at what the fetch
// memo and the block guards key on: ITLB eviction, superpages, satp/ASID
// switches, sfence.vma, interrupts, RVC and page-straddling parcels,
// self-modifying code, PMP writes and checkpoint restores.
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "cpu_test_util.h"
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

auto arch_fields(const CoreArchState& s) {
  return std::tie(s.regs, s.pc, s.priv, s.cycles, s.instret, s.mstatus, s.mtvec,
                  s.medeleg, s.mideleg, s.mie, s.mip, s.mscratch, s.mepc, s.mcause,
                  s.mtval, s.stvec, s.sscratch, s.sepc, s.scause, s.stval, s.satp,
                  s.mtimecmp, s.pmp_cfg, s.pmp_addr);
}

std::map<std::string, u64> hw_counters(const Core& core) {
  std::map<std::string, u64> c = core.merged_stats().counters();
  std::erase_if(c, [](const auto& kv) { return kv.first.rfind("bbcache.", 0) == 0; });
  return c;
}

std::string first_difference(const std::map<std::string, u64>& fast,
                             const std::map<std::string, u64>& classic) {
  std::map<std::string, std::pair<u64, u64>> all;
  for (const auto& [k, v] : fast) all[k].first = v;
  for (const auto& [k, v] : classic) all[k].second = v;
  for (const auto& [k, v] : all) {
    if (v.first != v.second) {
      return k + ": decode cache " + std::to_string(v.first) + ", classic " +
             std::to_string(v.second);
    }
  }
  return "";
}

class Lockstep : public ::testing::Test {
 protected:
  struct Side {
    explicit Side(bool decode_cache)
        : mem(kDramBase, MiB(64)), core(mem, config(decode_cache)) {}
    static CoreConfig config(bool decode_cache) {
      CoreConfig cfg;
      cfg.decode_cache = decode_cache;
      return cfg;
    }
    PhysMem mem;
    Core core;
  };

  // ---- identical set-up and events on both machines ----
  void both(const std::function<void(PhysMem&, Core&)>& f) {
    f(fast_.mem, fast_.core);
    f(classic_.mem, classic_.core);
  }
  void poke(PhysAddr pa, u64 v) {
    both([&](PhysMem& m, Core&) { m.write_u64(pa, v); });
  }
  void load(PhysAddr pa, const std::vector<u32>& words) {
    both([&](PhysMem&, Core& c) { c.load_code(pa, words); });
  }
  void set_csr(u32 num, u64 v) {
    both([&](PhysMem&, Core& c) {
      ASSERT_TRUE(c.write_csr(num, v, Privilege::kMachine));
    });
  }
  void start(VirtAddr pc, Privilege priv) {
    both([&](PhysMem&, Core& c) {
      c.set_pc(pc);
      c.set_priv(priv);
    });
  }

  /// A fresh DRAM frame. Consecutive frames are not adjacent, so a
  /// VA-contiguous mapping is PA-discontiguous.
  PhysAddr frame() {
    const PhysAddr f = next_frame_;
    next_frame_ += 2 * kPageSize;
    return f;
  }

  // ---- Sv39 page tables, built in physical memory ----
  PhysAddr new_table() {
    const PhysAddr t = next_table_;
    next_table_ += kPageSize;
    return t;
  }
  /// Physical address of the PTE slot for `va` at `level`, creating the
  /// intermediate tables on the way.
  PhysAddr slot(PhysAddr root, VirtAddr va, unsigned level = 0) {
    PhysAddr table = root;
    for (unsigned l = 2; l > level; --l) {
      const PhysAddr s = table + bits(va, 12 + 9 * l, 9) * kPteSize;
      u64 e = fast_.mem.read_u64(s);
      if (!pte::valid(e)) {
        e = pte::make_from_pa(new_table(), pte::kV);
        poke(s, e);
      }
      table = pte::pa(e);
    }
    return table + bits(va, 12 + 9 * level, 9) * kPteSize;
  }
  void map(PhysAddr root, VirtAddr va, PhysAddr pa, u64 flags, unsigned level = 0) {
    poke(slot(root, va, level), pte::make_from_pa(pa, flags));
  }
  /// Load VA-contiguous code starting at page-aligned `va` into fresh frames,
  /// one per page, and map each page.
  void map_code(PhysAddr root, VirtAddr va, const std::vector<u32>& words, u64 flags) {
    constexpr size_t kWordsPerPage = kPageSize / 4;
    for (size_t first = 0; first < words.size(); first += kWordsPerPage) {
      const PhysAddr f = frame();
      const size_t end = std::min(words.size(), first + kWordsPerPage);
      load(f, std::vector<u32>(words.begin() + first, words.begin() + end));
      map(root, va + first * 4, f, flags);
    }
  }
  static u64 sv39(PhysAddr root, u16 asid) {
    return isa::satp::make(isa::satp::kModeSv39, asid, root >> kPageShift, false);
  }

  /// Step both cores until one halts or `max_steps` pass, checking after
  /// every step. Returns the steps taken.
  u64 run(u64 max_steps) {
    for (u64 i = 0; i < max_steps; ++i) {
      const u64 pc = classic_.core.pc();
      const StepResult f = fast_.core.step();
      const StepResult c = classic_.core.step();
      if (!agree(f, c)) {
        ADD_FAILURE() << "diverged at step " << i << ", pc 0x" << std::hex << pc;
        return i;
      }
      if (c.stop == StopReason::kEbreakHalt || c.stop == StopReason::kWfi) return i + 1;
    }
    return max_steps;
  }

  bool agree(const StepResult& f, const StepResult& c) {
    if (f.stop != c.stop || f.trap != c.trap) {
      ADD_FAILURE() << "step results differ";
      return false;
    }
    const CoreArchState fs = fast_.core.arch_state();
    const CoreArchState cs = classic_.core.arch_state();
    if (arch_fields(fs) != arch_fields(cs)) {
      ADD_FAILURE() << "architectural state differs (pc 0x" << std::hex << fs.pc
                    << " vs 0x" << cs.pc << ", cycles " << std::dec << fs.cycles
                    << " vs " << cs.cycles << ")";
      return false;
    }
    const std::string diff =
        first_difference(hw_counters(fast_.core), hw_counters(classic_.core));
    if (!diff.empty()) {
      ADD_FAILURE() << "counter differs: " << diff;
      return false;
    }
    return true;
  }

  /// Common end-of-scenario checks: the run halted, memory agrees, and the
  /// decode-cache core really dispatched from its blocks.
  void expect_halted_and_same(u64 steps, u64 max_steps) {
    EXPECT_LT(steps, max_steps) << "scenario did not halt";
    EXPECT_EQ(fast_.mem.content_digest(), classic_.mem.content_digest());
    EXPECT_GT(fast_.core.merged_stats().get("bbcache.hits"), 0u);
  }

  u64 reg(Reg r) const { return classic_.core.reg(isa::regno(r)); }
  u64 counter(const char* name) const { return classic_.core.merged_stats().get(name); }
  u64 csr_value(u32 num) { return *classic_.core.read_csr(num, Privilege::kMachine); }

  Side fast_{true};
  Side classic_{false};
  PhysAddr next_frame_ = kDramBase + MiB(8);
  PhysAddr next_table_ = kDramBase + MiB(48);
};

TEST_F(Lockstep, UserCodeAcrossMoreThan32Pages) {
  // 40 code pages chained by jal (the ITLB holds 32) touching 12 data pages
  // (the DTLB holds 8), three times round.
  constexpr unsigned kCodePages = 40;
  constexpr unsigned kDataPages = 12;
  const PhysAddr root = new_table();
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
  map_code(root, kCodeVa, a.finish(), kUserRx);
  for (unsigned d = 0; d < kDataPages; ++d) {
    map(root, kDataVa + d * kPageSize, frame(), kUserRw);
  }
  set_csr(csr::kSatp, sv39(root, 1));
  start(kCodeVa, Privilege::kUser);

  const u64 steps = run(50'000);
  expect_halted_and_same(steps, 50'000);
  EXPECT_EQ(reg(Reg::kS0), 3u * kCodePages);
  EXPECT_GT(counter("ITLB.fills"), 2u * kCodePages);  // Evicted and refilled.
  EXPECT_GT(counter("DTLB.fills"), 2u * kDataPages);
}

TEST_F(Lockstep, SuperpageCodeAndData) {
  // One 2 MiB leaf maps code on three 4 KiB pages plus the data they store.
  constexpr VirtAddr kSuperVa = 0x20'0000;
  const PhysAddr root = new_table();
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
  load(super_pa, a.finish());
  map(root, kSuperVa, super_pa, kUserRwx, /*level=*/1);
  set_csr(csr::kSatp, sv39(root, 1));
  start(kSuperVa, Privilege::kUser);

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
  const PhysAddr root1 = new_table();
  const PhysAddr root2 = new_table();
  const PhysAddr f1 = frame();
  const PhysAddr f2 = frame();
  for (const auto& [frame_pa, value] : {std::pair{f1, 1}, std::pair{f2, 2}}) {
    Assembler a(kF);
    a.addi(Reg::kA0, Reg::kZero, value);
    a.ret();
    load(frame_pa, a.finish());
  }
  const PhysAddr d1 = frame();
  const PhysAddr d2 = frame();
  poke(d1, 111);
  poke(d2, 222);
  map(root1, kF, f1, kKernRx);
  map(root2, kF, f2, kKernRx);
  map(root1, kD, d1, kKernRw);
  map(root2, kD, d2, kKernRw);
  const PhysAddr f_slot = slot(root1, kF);
  map(root1, kT, align_down(f_slot, kPageSize), kKernRw);

  Assembler a(kCodeVa);
  a.li(Reg::kT0, sv39(root2, 2));
  a.li(Reg::kT1, sv39(root1, 1));
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
  const PhysAddr code = frame();
  load(code, a.finish());
  map(root1, kCodeVa, code, kKernRx);
  map(root2, kCodeVa, code, kKernRx);
  set_csr(csr::kSatp, sv39(root1, 1));
  start(kCodeVa, Privilege::kSupervisor);

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
  const PhysAddr root = new_table();
  Assembler a(kCodeVa);
  auto user = a.make_label();
  a.li(Reg::kT0, kCodeVa + 0x100);
  a.csrrw(Reg::kZero, csr::kSepc, Reg::kT0);
  a.sret();  // sstatus.SPP is 0: return to U.
  while (a.pc() < kCodeVa + 0x100) a.emit(0);
  a.bind(user);
  a.addi(Reg::kA0, Reg::kZero, 1);
  a.ebreak();
  map_code(root, kCodeVa, a.finish(), kKernRx);
  constexpr VirtAddr kHandlerVa = 0x20'0000;
  Assembler h(kHandlerVa);
  h.csrrs(Reg::kS1, csr::kScause, Reg::kZero);
  h.ebreak();
  map_code(root, kHandlerVa, h.finish(), kKernRx);
  set_csr(csr::kSatp, sv39(root, 1));
  set_csr(csr::kStvec, kHandlerVa);
  set_csr(csr::kMedeleg, u64{1} << static_cast<u64>(isa::TrapCause::kInstPageFault));
  start(kCodeVa, Privilege::kSupervisor);

  const u64 steps = run(100);
  expect_halted_and_same(steps, 100);
  EXPECT_EQ(reg(Reg::kA0), 0u);
  EXPECT_EQ(reg(Reg::kS1), static_cast<u64>(isa::TrapCause::kInstPageFault));
}

TEST_F(Lockstep, TimerInterruptsMidBlock) {
  // A long straight-line U-mode loop body under a timer that the M-mode
  // handler re-arms every 37 cycles, so interrupts land inside blocks.
  const PhysAddr root = new_table();
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
  map_code(root, kCodeVa, a.finish(), kUserRx);

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
  load(kHandler, h.finish());

  set_csr(csr::kSatp, sv39(root, 1));
  set_csr(csr::kMtvec, kHandler);
  set_csr(csr::kMie, u64{1} << csr::irq::kMti);
  set_csr(csr::kMtimecmp, 41);
  start(kCodeVa, Privilege::kUser);

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
  const PhysAddr root = new_table();
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
  map_code(root, kCodeVa, a.finish(), kUserRx);
  set_csr(csr::kSatp, sv39(root, 1));
  start(kCodeVa, Privilege::kUser);

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
  const PhysAddr root = new_table();
  const PhysAddr code = frame();
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
  load(code, a.finish());
  map(root, kCodeVa, code, kUserRx);
  map(root, kAliasVa, code, kUserRw);
  set_csr(csr::kSatp, sv39(root, 1));
  start(kCodeVa, Privilege::kUser);

  const u64 steps = run(1'000);
  expect_halted_and_same(steps, 1'000);
  EXPECT_EQ(reg(Reg::kS0), 7u + 42 + 43);
}

TEST_F(Lockstep, PmpReprogramming) {
  // U-mode code calls G, whose frame has its own TOR entry. An ecall makes
  // the M-mode handler drop X from that entry; the next call takes an
  // instruction access fault, and the handler restores X and retries it.
  const PhysAddr root = new_table();
  const PhysAddr g = frame();
  constexpr VirtAddr kG = 0x20'0000;
  {
    Assembler a(kG);
    a.addi(Reg::kA0, Reg::kZero, 5);
    a.ret();
    load(g, a.finish());
  }
  map(root, kG, g, kUserRx);
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
  map_code(root, kCodeVa, a.finish(), kUserRx);

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
  load(kHandler, h.finish());

  set_csr(csr::kPmpaddr0, g >> 2);
  set_csr(csr::kPmpaddr0 + 1, (g + kPageSize) >> 2);
  set_csr(csr::kPmpaddr0 + 2, fast_.mem.dram_end() >> 2);
  set_csr(csr::kPmpcfg0, kCfgX);
  set_csr(csr::kSatp, sv39(root, 1));
  set_csr(csr::kMtvec, kHandler);
  start(kCodeVa, Privilege::kUser);

  const u64 steps = run(2'000);
  expect_halted_and_same(steps, 2'000);
  EXPECT_EQ(reg(Reg::kS0), 30u);
  EXPECT_EQ(csr_value(csr::kMscratch), 3u);
}

TEST_F(Lockstep, RestoreArchStateMidRun) {
  // A checkpoint (frames + arch state) taken mid-run and restored later, as
  // System checkpoints do; both cores resume from cold microarchitecture.
  const PhysAddr root = new_table();
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
  map_code(root, kCodeVa, a.finish(), kUserRx);
  map(root, kDataVa, frame(), kUserRw);
  set_csr(csr::kSatp, sv39(root, 1));
  start(kCodeVa, Privilege::kUser);

  ASSERT_EQ(run(100), 100u);
  std::vector<CoreArchState> saved;
  std::vector<std::vector<std::pair<u64, std::vector<u8>>>> frames;
  both([&](PhysMem& m, Core& c) {
    saved.push_back(c.arch_state());
    frames.push_back(m.snapshot_frames());
  });
  ASSERT_EQ(run(150), 150u);
  size_t i = 0;
  both([&](PhysMem& m, Core& c) {
    m.restore_frames(frames[i]);
    c.restore_arch_state(saved[i]);
    ++i;
  });
  const u64 steps = run(2'000);
  expect_halted_and_same(steps, 2'000);
  EXPECT_EQ(reg(Reg::kS0), 3u * 60 * 61 / 2);
}

}  // namespace
}  // namespace ptstore
