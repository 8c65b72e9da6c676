// Decoded basic-block cache coherence: every way stale decoded state could
// diverge from what the classic fetch/decode path would do — self-modifying
// code, fence.i, sfence.vma remaps, stores through aliased mappings — plus
// the headline invariant: simulated timing and counters are bit-identical
// with the cache on and off.
#include <functional>
#include <map>
#include <string>
#include <tuple>

#include "cpu_test_util.h"
#include "isa/csr.h"
#include "mmu/pte.h"

namespace ptstore {
namespace {

using testutil::Machine;
using isa::Assembler;
using isa::Reg;

// Encoding of one instruction, for code-patching stores.
u32 encode(const std::function<void(Assembler&)>& one) {
  Assembler a(0);
  one(a);
  return a.finish().at(0);
}

// A program that calls a subroutine, patches it in place (no fence.i — the
// interpreter's classic path re-reads memory every fetch, so the new bytes
// must take effect immediately), and calls it again.
//   s1 = first call's a0 (7), s2 = second call's a0 (42).
void build_smc(Assembler& a, bool with_fence_i) {
  auto func = a.make_label();
  a.jal(Reg::kRa, func);               // word 0
  a.mv(Reg::kS1, Reg::kA0);            // word 1
  a.auipc(Reg::kT0, 0);                // word 2: t0 = base + 8
  a.addi(Reg::kT0, Reg::kT0, 36);      // word 3: t0 = &func (word 11)
  a.lui(Reg::kT1, 0x02A00);            // word 4: t1 = addi a0, x0, 42 ...
  a.addi(Reg::kT1, Reg::kT1, 0x513);   // word 5: ... = 0x02A00513
  a.sw(Reg::kT1, Reg::kT0, 0);         // word 6: patch func's first word
  if (with_fence_i) {
    a.fence_i();                       // word 7
  } else {
    a.nop();                           // word 7 (keeps func at word 11)
  }
  a.jal(Reg::kRa, func);               // word 8
  a.mv(Reg::kS2, Reg::kA0);            // word 9
  a.ebreak();                          // word 10
  a.bind(func);                        // word 11: base + 44
  a.addi(Reg::kA0, Reg::kZero, 7);
  a.jalr(Reg::kZero, Reg::kRa, 0);
}

TEST(BBCache, SelfModifyingCodeTakesEffectWithoutFenceI) {
  Machine m;
  m.run_program([](Assembler& a) { build_smc(a, /*with_fence_i=*/false); });
  EXPECT_EQ(m.reg(Reg::kS1), 7u);
  EXPECT_EQ(m.reg(Reg::kS2), 42u);
}

TEST(BBCache, FenceIFlushesAndCounts) {
  Machine m;
  m.run_program([](Assembler& a) { build_smc(a, /*with_fence_i=*/true); });
  EXPECT_EQ(m.reg(Reg::kS1), 7u);
  EXPECT_EQ(m.reg(Reg::kS2), 42u);
  const StatSet s = m.core.merged_stats();
  EXPECT_GE(s.get("bbcache.misses"), 1u);
  EXPECT_GE(s.get("bbcache.invalidations"), 1u);
}

// Storing zero never materializes an untouched frame, but code lives in a
// materialized one: a zero store over a cached block must still bump the
// frame's write generation and evict the block. The store clears the
// immediate of `addi a0, zero, 7`, so the second call returns 0.
TEST(BBCache, ZeroStoreOverCachedCodeEvictsTheBlock) {
  Machine m;
  const PhysAddr base = m.core.config().reset_pc;
  m.run_program([](Assembler& a) {
    auto func = a.make_label();
    a.jal(Reg::kRa, func);           // word 0
    a.mv(Reg::kS1, Reg::kA0);        // word 1
    a.auipc(Reg::kT0, 0);            // word 2: t0 = base + 8
    a.addi(Reg::kT0, Reg::kT0, 28);  // word 3: t0 = &func (word 9)
    a.sh(Reg::kZero, Reg::kT0, 2);   // word 4: imm[11:0] of func's addi = 0
    a.jal(Reg::kRa, func);           // word 5
    a.mv(Reg::kS2, Reg::kA0);        // word 6
    a.ebreak();                      // word 7
    a.nop();                         // word 8
    a.bind(func);                    // word 9: base + 36
    a.addi(Reg::kA0, Reg::kZero, 7);
    a.jalr(Reg::kZero, Reg::kRa, 0);
  });
  EXPECT_EQ(m.reg(Reg::kS1), 7u);
  EXPECT_EQ(m.reg(Reg::kS2), 0u);
  EXPECT_EQ(m.mem.read_u32(base + 36), 0x513u);  // addi a0, zero, 0
  EXPECT_GE(m.core.merged_stats().get("bbcache.misses"), 3u);
}

TEST(BBCache, HitsAccumulateOnReexecution) {
  Machine m;
  m.run_program([](Assembler& a) {
    auto loop = a.make_label();
    a.addi(Reg::kA0, Reg::kZero, 100);
    a.bind(loop);
    a.addi(Reg::kA0, Reg::kA0, -1);
    a.addi(Reg::kT0, Reg::kA0, 3);
    a.xor_(Reg::kT1, Reg::kT0, Reg::kA0);
    a.bne(Reg::kA0, Reg::kZero, loop);
    a.ebreak();
  });
  EXPECT_EQ(m.reg(Reg::kA0), 0u);
  const StatSet s = m.core.merged_stats();
  EXPECT_GT(s.get("bbcache.hits"), 100u);  // The loop body re-dispatches.
  EXPECT_LT(s.get("bbcache.misses"), 10u);
}

// Sv39 fixture: one executable page at `va`, initially mapped to frame A.
struct PagedMachine {
  static constexpr VirtAddr kVa = 0x4'0000'0000;
  Machine m;
  PhysAddr root = kDramBase + MiB(2);
  PhysAddr l1 = root + kPageSize;
  PhysAddr l0 = root + 2 * kPageSize;
  PhysAddr frame_a = kDramBase + MiB(8);
  PhysAddr frame_b = kDramBase + MiB(8) + kPageSize;

  PagedMachine() {
    m.mem.write_u64(root + bits(kVa, 30, 9) * 8, pte::make_from_pa(l1, pte::kV));
    m.mem.write_u64(l1 + bits(kVa, 21, 9) * 8, pte::make_from_pa(l0, pte::kV));
    map_leaf(frame_a);
    // frame A: a0 = 1; frame B: a0 = 2.
    load_ret_const(frame_a, 1);
    load_ret_const(frame_b, 2);
    m.core.write_csr(isa::csr::kSatp,
                     isa::satp::make(isa::satp::kModeSv39, 1,
                                     root >> kPageShift, false),
                     Privilege::kSupervisor);
  }

  void map_leaf(PhysAddr frame, VirtAddr va = kVa) {
    m.mem.write_u64(l0 + bits(va, 12, 9) * 8,
                    pte::make_from_pa(frame, pte::kV | pte::kR | pte::kW |
                                                 pte::kX | pte::kA | pte::kD));
  }

  void load_ret_const(PhysAddr frame, i64 value) {
    Assembler a(kVa);
    a.addi(Reg::kA0, Reg::kZero, value);
    a.ebreak();
    m.core.load_code(frame, a.finish());
  }

  /// Execute from `va` in S-mode until ebreak; returns a0.
  u64 run_at(VirtAddr va = kVa) {
    m.core.set_reg(isa::regno(Reg::kA0), 0);
    m.core.set_priv(Privilege::kSupervisor);
    m.core.set_pc(va);
    const StepResult r = m.core.run(16);
    EXPECT_EQ(r.stop, StopReason::kEbreakHalt);
    return m.reg(Reg::kA0);
  }

  /// Execute a lone sfence.vma from an M-mode scratch page.
  void sfence() {
    const PhysAddr scratch = kDramBase + MiB(1);
    Assembler a(scratch);
    a.sfence_vma();
    a.ebreak();
    m.core.load_code(scratch, a.finish());
    m.core.set_priv(Privilege::kMachine);
    m.core.set_pc(scratch);
    EXPECT_EQ(m.core.run(4).stop, StopReason::kEbreakHalt);
  }
};

TEST(BBCache, SfenceVmaRemapToDifferentFrame) {
  PagedMachine p;
  EXPECT_EQ(p.run_at(), 1u);

  // Remap the page to frame B without sfence.vma: the stale ITLB entry
  // still reaches frame A — exactly what the classic path would do.
  p.map_leaf(p.frame_b);
  EXPECT_EQ(p.run_at(), 1u);

  // After sfence.vma the walk sees the new leaf; the decoded block for
  // frame A must not be dispatched at frame B's physical PC.
  p.sfence();
  EXPECT_EQ(p.run_at(), 2u);
}

TEST(BBCache, StoreThroughAliasedMappingInvalidates) {
  PagedMachine p;
  EXPECT_EQ(p.run_at(), 1u);

  // Alias: va+4K maps to the same frame A. Patch the first instruction
  // through the alias (a plain data store — no fence of any kind).
  const VirtAddr alias = PagedMachine::kVa + kPageSize;
  p.map_leaf(p.frame_a, alias);
  const u32 patched =
      encode([](Assembler& a) { a.addi(Reg::kA0, Reg::kZero, 2); });
  const MemAccessResult w = p.m.core.access_as(
      alias, 4, AccessType::kWrite, AccessKind::kRegular,
      Privilege::kSupervisor, patched);
  ASSERT_TRUE(w.ok);

  // Same virtual PC, same physical frame, new bytes.
  EXPECT_EQ(p.run_at(), 2u);
}

// The acceptance invariant: with the decode cache on and off, the same
// program produces identical architectural state, cycle counts, and
// hardware counters (modulo the bbcache.* keys themselves).
TEST(BBCache, SimulationBitIdenticalCacheOnVsOff) {
  auto run_one = [](bool decode_cache, const std::function<void(Assembler&)>& prog) {
    PhysMem mem(kDramBase, MiB(32));
    CoreConfig cfg;
    cfg.ptstore_enabled = true;
    cfg.decode_cache = decode_cache;
    Core core(mem, cfg);
    Assembler a(cfg.reset_pc);
    prog(a);
    core.load_code(cfg.reset_pc, a.finish());
    core.run(100000);
    StatSet stats = core.merged_stats();
    std::map<std::string, u64> counters = stats.counters();
    std::erase_if(counters, [](const auto& kv) {
      return kv.first.rfind("bbcache.", 0) == 0;
    });
    return std::tuple{core.cycles(), core.instret(), core.pc(),
                      core.reg(isa::regno(Reg::kS2)), counters};
  };

  const std::function<void(Assembler&)> programs[] = {
      [](Assembler& a) { build_smc(a, false); },
      [](Assembler& a) { build_smc(a, true); },
      [](Assembler& a) {
        auto loop = a.make_label();
        a.addi(Reg::kA0, Reg::kZero, 200);
        a.li(Reg::kT2, kDramBase + MiB(4));
        a.bind(loop);
        a.addi(Reg::kA0, Reg::kA0, -1);
        a.sd(Reg::kA0, Reg::kT2, 0);
        a.ld(Reg::kT1, Reg::kT2, 0);
        a.add(Reg::kS2, Reg::kS2, Reg::kT1);
        a.bne(Reg::kA0, Reg::kZero, loop);
        a.ebreak();
      },
  };
  for (const auto& prog : programs) {
    const auto off = run_one(false, prog);
    const auto on = run_one(true, prog);
    EXPECT_EQ(std::get<0>(off), std::get<0>(on));  // cycles
    EXPECT_EQ(std::get<1>(off), std::get<1>(on));  // instret
    EXPECT_EQ(std::get<2>(off), std::get<2>(on));  // pc
    EXPECT_EQ(std::get<3>(off), std::get<3>(on));  // s2
    EXPECT_EQ(std::get<4>(off), std::get<4>(on));  // all counters
  }
}

}  // namespace
}  // namespace ptstore
