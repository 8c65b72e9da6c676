#include "harness/lockstep.h"

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <map>

#include "common/bits.h"
#include "common/rng.h"
#include "isa/assembler.h"
#include "isa/csr.h"
#include "mmu/pte.h"

namespace ptstore::harness {
namespace {

using isa::Assembler;
using isa::Reg;
namespace csr = isa::csr;

std::string hex(u64 v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string differ(const std::string& what, u64 fast, u64 ref) {
  return what + ": fast " + hex(fast) + ", reference " + hex(ref);
}

bool halts(const StepResult& r) {
  return r.stop == StopReason::kEbreakHalt || r.stop == StopReason::kWfi;
}

std::map<std::string, u64> counters(const Core& core, bool bbcache) {
  std::map<std::string, u64> c = core.merged_stats().counters();
  std::erase_if(c, [&](const auto& kv) {
    return (kv.first.rfind("bbcache.", 0) == 0) != bbcache;
  });
  return c;
}

}  // namespace

std::string lockstep_difference(const Core& fast, const StepResult& f, const Core& ref,
                                const StepResult& r, bool bbcache) {
  if (f.stop != r.stop || f.trap != r.trap) {
    const auto text = [](const StepResult& x) {
      return "stop " + std::to_string(static_cast<int>(x.stop)) + " trap " +
             std::to_string(static_cast<int>(x.trap));
    };
    return "step result: fast " + text(f) + ", reference " + text(r);
  }
  const CoreArchState a = fast.arch_state();
  const CoreArchState b = ref.arch_state();
  for (unsigned i = 0; i < 32; ++i) {
    if (a.regs[i] != b.regs[i]) {
      return differ("x" + std::to_string(i), a.regs[i], b.regs[i]);
    }
  }
  if (a.priv != b.priv) {
    return differ("priv", static_cast<u64>(a.priv), static_cast<u64>(b.priv));
  }
#define PTSTORE_ARCH_FIELD(f) \
  if (a.f != b.f) return differ(#f, a.f, b.f);
  PTSTORE_ARCH_FIELD(pc) PTSTORE_ARCH_FIELD(cycles) PTSTORE_ARCH_FIELD(instret)
  PTSTORE_ARCH_FIELD(mstatus) PTSTORE_ARCH_FIELD(mtvec) PTSTORE_ARCH_FIELD(medeleg)
  PTSTORE_ARCH_FIELD(mideleg) PTSTORE_ARCH_FIELD(mie) PTSTORE_ARCH_FIELD(mip)
  PTSTORE_ARCH_FIELD(mscratch) PTSTORE_ARCH_FIELD(mepc) PTSTORE_ARCH_FIELD(mcause)
  PTSTORE_ARCH_FIELD(mtval) PTSTORE_ARCH_FIELD(stvec) PTSTORE_ARCH_FIELD(sscratch)
  PTSTORE_ARCH_FIELD(sepc) PTSTORE_ARCH_FIELD(scause) PTSTORE_ARCH_FIELD(stval)
  PTSTORE_ARCH_FIELD(satp) PTSTORE_ARCH_FIELD(mtimecmp)
#undef PTSTORE_ARCH_FIELD
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    if (a.pmp_cfg[i] != b.pmp_cfg[i]) {
      return differ("pmpcfg" + std::to_string(i), a.pmp_cfg[i], b.pmp_cfg[i]);
    }
    if (a.pmp_addr[i] != b.pmp_addr[i]) {
      return differ("pmpaddr" + std::to_string(i), a.pmp_addr[i], b.pmp_addr[i]);
    }
  }
  std::map<std::string, std::pair<u64, u64>> all;
  for (const auto& [k, v] : counters(fast, bbcache)) all[k].first = v;
  for (const auto& [k, v] : counters(ref, bbcache)) all[k].second = v;
  for (const auto& [k, v] : all) {
    if (v.first != v.second) return differ(k, v.first, v.second);
  }
  return "";
}

Lockstep::Lockstep(u64 dram_bytes, const CoreConfig& cfg) {
  CoreConfig cached = cfg;
  cached.decode_cache = true;
  CoreConfig classic = cfg;
  classic.decode_cache = false;
  fast_ = std::make_unique<Machine>(dram_bytes, cached);
  classic_ = std::make_unique<Machine>(dram_bytes, classic);
  stepped_ = std::make_unique<Machine>(dram_bytes, cached);
}

Lockstep::Outcome Lockstep::run(u64 max_steps, u64 chunk, Call call) {
  Outcome out;
  while (out.steps < max_steps) {
    const u64 pc = classic_->core.pc();
    const u64 asked = std::min(chunk, max_steps - out.steps);
    StepResult f;
    u64 budget = asked;
    if (call == Call::kRunBlock) {
      f = fast_->core.run_block(budget);
    } else {
      f = fast_->core.run(asked);
    }
    // Core::run() does not say how many steps it took before a halt: the
    // references then step until they halt too, within the same budget.
    const u64 n = call == Call::kRunBlock ? asked - budget : asked;
    StepResult c;
    StepResult s;
    u64 taken = 0;
    while (taken < n) {
      c = classic_->core.step();
      s = stepped_->core.step();
      ++taken;
      if (halts(c)) break;
    }
    out.steps += taken;
    // Core::run() returns kInstLimit where its last step returned c.
    if (f.stop == StopReason::kInstLimit && !halts(c)) f = c;
    std::string diff =
        lockstep_difference(fast_->core, f, classic_->core, c, false);
    if (diff.empty()) {
      diff = lockstep_difference(fast_->core, f, stepped_->core, s, true);
    }
    if (!diff.empty()) {
      out.divergence =
          "step " + std::to_string(out.steps) + ", pc " + hex(pc) + ": " + diff;
      return out;
    }
    if (halts(c)) {
      out.halted = true;
      break;
    }
  }
  if (fast_->mem.content_digest() != classic_->mem.content_digest()) {
    out.divergence =
        "memory contents differ after " + std::to_string(out.steps) + " steps";
  }
  return out;
}

void Lockstep::each(const std::function<void(PhysMem&, Core&)>& f) {
  f(fast_->mem, fast_->core);
  f(classic_->mem, classic_->core);
  f(stepped_->mem, stepped_->core);
}

void Lockstep::poke(PhysAddr pa, u64 v) {
  each([&](PhysMem& m, Core&) { m.write_u64(pa, v); });
}

void Lockstep::load(PhysAddr pa, const std::vector<u32>& words) {
  each([&](PhysMem&, Core& c) { c.load_code(pa, words); });
}

bool Lockstep::set_csr(u32 num, u64 v) {
  bool ok = true;
  each([&](PhysMem&, Core& c) { ok = c.write_csr(num, v, Privilege::kMachine) && ok; });
  return ok;
}

void Lockstep::start(VirtAddr pc, Privilege priv) {
  each([&](PhysMem&, Core& c) {
    c.set_pc(pc);
    c.set_priv(priv);
  });
}

PhysAddr Lockstep::frame() {
  const PhysAddr f = next_frame_;
  next_frame_ += 2 * kPageSize;
  return f;
}

PhysAddr Lockstep::new_table() {
  const PhysAddr t = next_table_;
  next_table_ += kPageSize;
  return t;
}

PhysAddr Lockstep::slot(PhysAddr root, VirtAddr va, unsigned level) {
  PhysAddr table = root;
  for (unsigned l = 2; l > level; --l) {
    const PhysAddr s = table + bits(va, 12 + 9 * l, 9) * kPteSize;
    u64 e = fast_->mem.read_u64(s);
    if (!pte::valid(e)) {
      e = pte::make_from_pa(new_table(), pte::kV);
      poke(s, e);
    }
    table = pte::pa(e);
  }
  return table + bits(va, 12 + 9 * level, 9) * kPteSize;
}

void Lockstep::map(PhysAddr root, VirtAddr va, PhysAddr pa, u64 flags, unsigned level) {
  poke(slot(root, va, level), pte::make_from_pa(pa, flags));
}

void Lockstep::map_code(PhysAddr root, VirtAddr va, const std::vector<u32>& words,
                        u64 flags) {
  constexpr size_t kWordsPerPage = kPageSize / 4;
  for (size_t first = 0; first < words.size(); first += kWordsPerPage) {
    const PhysAddr f = frame();
    const size_t end = std::min(words.size(), first + kWordsPerPage);
    load(f, std::vector<u32>(words.begin() + first, words.begin() + end));
    map(root, va + first * 4, f, flags);
  }
}

u64 Lockstep::sv39(PhysAddr root, u16 asid) {
  return isa::satp::make(isa::satp::kModeSv39, asid, root >> kPageShift, false);
}

// ---- seeded programs ----
namespace {

constexpr VirtAddr kCodeVa = 0x10'0000;
constexpr VirtAddr kDataVa = 0x4000'0000;
constexpr PhysAddr kMCode = kDramBase + MiB(4);  ///< M-mode code (bare, contiguous).
constexpr PhysAddr kMData = kDramBase + MiB(6);  ///< M-mode data pages.
constexpr PhysAddr kHandler = kDramBase + MiB(1);

// Registers: fragments write only kWork. s5 is the patched accumulator, s6
// the patch encoding, s11 its step, s7 an address temporary, s8/s9 the
// data-page bases (+2 KiB), s10 the loop counter, t3 inner loops and AMO
// addresses, t4 timer arming, a7 the ecall argument, t5/t6 the handler's.
constexpr Reg kWork[] = {Reg::kA0, Reg::kA1, Reg::kA2, Reg::kA3, Reg::kA4, Reg::kA5,
                         Reg::kT0, Reg::kT1, Reg::kT2, Reg::kS0, Reg::kS1, Reg::kS2,
                         Reg::kS3, Reg::kS4};

u32 encode(const std::function<void(Assembler&)>& one) {
  Assembler a(0);
  one(a);
  return a.finish().at(0);
}

/// One program draw. Emitted twice: the first pass learns where the
/// subroutines land, the second loads their addresses for jalr (the same
/// seed gives the same instruction count either way).
class ProgramGen {
 public:
  ProgramGen(u64 seed, Privilege priv, VirtAddr data, const std::vector<u64>& sub_addr)
      : rng_(seed), priv_(priv), data_(data), sub_addr_(sub_addr) {}

  /// Emits the program at a.pc(); returns the subroutine addresses.
  std::vector<u64> emit(Assembler& a) {
    const unsigned n_subs = 1 + static_cast<unsigned>(rng_.next_below(3));
    for (unsigned i = 0; i < n_subs; ++i) subs_.push_back(a.make_label());
    a.li(Reg::kS8, data_ + 2048);
    a.li(Reg::kS9, data_ + kPageSize + 2048);
    a.li(Reg::kS11, u64{1} << 20);
    a.li(Reg::kS6, encode([](Assembler& x) { x.addi(Reg::kS5, Reg::kS5, 1); }));
    for (const Reg r : kWork) a.li(r, rng_.next_u64() >> rng_.next_below(64));
    a.li(Reg::kS10, 2 + rng_.next_below(6));
    auto loop = a.make_label();
    a.bind(loop);
    const unsigned n_frags = 8 + static_cast<unsigned>(rng_.next_below(24));
    for (unsigned i = 0; i < n_frags; ++i) fragment(a, /*in_sub=*/false);
    a.addi(Reg::kS10, Reg::kS10, -1);
    a.bnez(Reg::kS10, loop);
    a.ebreak();
    std::vector<u64> addr;
    for (const auto& l : subs_) {
      a.bind(l);
      addr.push_back(*a.label_address(l));
      a.addi(Reg::kS5, Reg::kS5, 1);  // The word callers patch.
      const unsigned n = 1 + static_cast<unsigned>(rng_.next_below(4));
      for (unsigned i = 0; i < n; ++i) fragment(a, /*in_sub=*/true);
      a.ret();
    }
    return addr;
  }

 private:
  Reg work() { return kWork[rng_.next_below(std::size(kWork))]; }
  Reg source() { return rng_.next_below(8) == 0 ? Reg::kS5 : work(); }
  Reg data_base() { return rng_.next_below(2) == 0 ? Reg::kS8 : Reg::kS9; }
  /// An offset from a data base, aligned to `size`, inside its page.
  i64 data_off(unsigned size) {
    return static_cast<i64>(rng_.next_below(kPageSize / size) * size) - 2048;
  }

  void alu(Assembler& a) {
    const Reg d = work();
    const Reg x = source();
    const Reg y = source();
    const i64 imm = static_cast<i64>(rng_.next_below(4096)) - 2048;
    const unsigned sh = static_cast<unsigned>(rng_.next_below(64));
    switch (rng_.next_below(20)) {
      case 0: a.addi(d, x, imm); break;
      case 1: a.add(d, x, y); break;
      case 2: a.sub(d, x, y); break;
      case 3: a.xor_(d, x, y); break;
      case 4: a.or_(d, x, y); break;
      case 5: a.and_(d, x, y); break;
      case 6: a.slli(d, x, sh); break;
      case 7: a.srai(d, x, sh); break;
      case 8: a.sltu(d, x, y); break;
      case 9: a.xori(d, x, imm); break;
      case 10: a.addiw(d, x, imm); break;
      case 11: a.subw(d, x, y); break;
      case 12: a.sraw(d, x, y); break;
      case 13: a.mul(d, x, y); break;
      case 14: a.mulhu(d, x, y); break;
      case 15: a.div(d, x, y); break;
      case 16: a.remu(d, x, y); break;
      case 17: a.lui(d, imm); break;
      case 18: a.slt(d, x, y); break;
      default: a.srl(d, x, y); break;
    }
  }

  void load(Assembler& a) {
    const Reg d = work();
    const Reg b = data_base();
    switch (rng_.next_below(7)) {
      case 0: a.lb(d, b, data_off(1)); break;
      case 1: a.lbu(d, b, data_off(1)); break;
      case 2: a.lh(d, b, data_off(2)); break;
      case 3: a.lhu(d, b, data_off(2)); break;
      case 4: a.lw(d, b, data_off(4)); break;
      case 5: a.lwu(d, b, data_off(4)); break;
      default: a.ld(d, b, data_off(8)); break;
    }
  }

  void store(Assembler& a) {
    const Reg v = source();
    const Reg b = data_base();
    switch (rng_.next_below(4)) {
      case 0: a.sb(v, b, data_off(1)); break;
      case 1: a.sh(v, b, data_off(2)); break;
      case 2: a.sw(v, b, data_off(4)); break;
      default: a.sd(v, b, data_off(8)); break;
    }
  }

  void straight(Assembler& a) {
    switch (rng_.next_below(4)) {
      case 0: load(a); break;
      case 1: store(a); break;
      default: alu(a); break;
    }
  }

  void fragment(Assembler& a, bool in_sub) {
    const u64 pick = rng_.next_below(100);
    if (pick < 30) {
      const unsigned n = 1 + static_cast<unsigned>(rng_.next_below(3));
      for (unsigned i = 0; i < n; ++i) alu(a);
    } else if (pick < 45) {
      load(a);
    } else if (pick < 60) {
      store(a);
    } else if (pick < 63) {
      // AMOs and an LR/SC pair on a doubleword of a data page.
      a.addi(Reg::kT3, data_base(), data_off(8));
      switch (rng_.next_below(3)) {
        case 0: a.amoadd_d(work(), source(), Reg::kT3); break;
        case 1: a.amoswap_w(work(), source(), Reg::kT3); break;
        default:
          a.lr_d(work(), Reg::kT3);
          a.sc_d(work(), source(), Reg::kT3);
          break;
      }
    } else if (pick < 73) {
      // Forward branch over a few instructions.
      auto skip = a.make_label();
      const Reg x = source();
      const Reg y = source();
      switch (rng_.next_below(6)) {
        case 0: a.beq(x, y, skip); break;
        case 1: a.bne(x, y, skip); break;
        case 2: a.blt(x, y, skip); break;
        case 3: a.bge(x, y, skip); break;
        case 4: a.bltu(x, y, skip); break;
        default: a.bgeu(x, y, skip); break;
      }
      const unsigned n = 1 + static_cast<unsigned>(rng_.next_below(3));
      for (unsigned i = 0; i < n; ++i) straight(a);
      a.bind(skip);
    } else if (pick < 77) {
      // Short backward loop.
      auto body = a.make_label();
      a.li(Reg::kT3, 2 + rng_.next_below(4));
      a.bind(body);
      straight(a);
      a.addi(Reg::kT3, Reg::kT3, -1);
      a.bnez(Reg::kT3, body);
    } else if (pick < 85) {
      if (in_sub) {  // Subroutines make no calls: ra holds their return.
        alu(a);
        return;
      }
      const size_t k = rng_.next_below(subs_.size());
      switch (rng_.next_below(3)) {
        case 0:
          a.jal(Reg::kRa, subs_[k]);
          break;
        case 1:
          address_of_sub(a, k);
          a.jalr(Reg::kRa, Reg::kS7, 0);
          break;
        default:
          // Patch the subroutine's first word, then call it.
          address_of_sub(a, k);
          a.add(Reg::kS6, Reg::kS6, Reg::kS11);
          a.sw(Reg::kS6, Reg::kS7, 0);
          a.jal(Reg::kRa, subs_[k]);
          break;
      }
    } else if (pick < 91) {
      // Patch the instruction four words ahead, in the running block: the
      // new immediate must take effect at once.
      a.auipc(Reg::kS7, 0);
      a.add(Reg::kS6, Reg::kS6, Reg::kS11);
      a.sw(Reg::kS6, Reg::kS7, 16);
      a.nop();
      a.addi(Reg::kS5, Reg::kS5, 1);
    } else if (pick < 98) {
      // Arm the timer a few cycles ahead, so it fires inside a block.
      const u64 delta = 1 + rng_.next_below(60);
      if (priv_ == Privilege::kMachine) {
        a.csrrs(Reg::kT4, csr::kTime, Reg::kZero);
        a.addi(Reg::kT4, Reg::kT4, static_cast<i64>(delta));
        a.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT4);
      } else {
        a.li(Reg::kA7, delta);
        a.ecall();  // The handler arms it.
      }
    } else if (priv_ == Privilege::kMachine && rng_.next_below(2) == 0) {
      // Write an unused PMP address register: no access decision changes,
      // but every block built before goes stale.
      a.csrrw(Reg::kZero, csr::kPmpaddr0 + kPmpEntryCount - 1, work());
    } else {
      a.fence_i();
    }
  }

  /// s7 = subroutine k's address, PC-relative (the same length on both
  /// passes).
  void address_of_sub(Assembler& a, size_t k) {
    const u64 target = k < sub_addr_.size() ? sub_addr_[k] : a.pc();
    const i64 off = static_cast<i64>(target) - static_cast<i64>(a.pc());
    const i64 hi = (off + 0x800) >> 12;
    a.auipc(Reg::kS7, hi);
    a.addi(Reg::kS7, Reg::kS7, off - (hi << 12));
  }

  Rng rng_;
  Privilege priv_;
  VirtAddr data_;
  std::vector<u64> sub_addr_;
  std::vector<Assembler::Label> subs_;
};

/// M-mode handler: counts timer interrupts in mscratch (disarming the
/// timer), arms it on an ecall (mtimecmp = time + a7), and on anything else
/// disarms it and halts on wfi.
std::vector<u32> handler_code() {
  Assembler h(kHandler);
  auto irq = h.make_label();
  auto arm = h.make_label();
  h.csrrs(Reg::kT5, csr::kMcause, Reg::kZero);
  h.blt(Reg::kT5, Reg::kZero, irq);
  h.li(Reg::kT6, static_cast<u64>(isa::TrapCause::kEcallFromU));
  h.beq(Reg::kT5, Reg::kT6, arm);
  h.li(Reg::kT6, static_cast<u64>(isa::TrapCause::kEcallFromS));
  h.beq(Reg::kT5, Reg::kT6, arm);
  h.addi(Reg::kT6, Reg::kZero, -1);
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.wfi();
  h.bind(irq);
  h.addi(Reg::kT6, Reg::kZero, -1);
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.csrrs(Reg::kT6, csr::kMscratch, Reg::kZero);
  h.addi(Reg::kT6, Reg::kT6, 1);
  h.csrrw(Reg::kZero, csr::kMscratch, Reg::kT6);
  h.mret();
  h.bind(arm);
  h.csrrs(Reg::kT6, csr::kTime, Reg::kZero);
  h.add(Reg::kT6, Reg::kT6, Reg::kA7);
  h.csrrw(Reg::kZero, csr::kMtimecmp, Reg::kT6);
  h.csrrs(Reg::kT6, csr::kMepc, Reg::kZero);
  h.addi(Reg::kT6, Reg::kT6, 4);
  h.csrrw(Reg::kZero, csr::kMepc, Reg::kT6);
  h.mret();
  return h.finish();
}

}  // namespace

SeededProgram setup_seeded_program(Lockstep& ls, u64 seed) {
  Rng rng(seed);
  SeededProgram p;
  constexpr Privilege kModes[] = {Privilege::kMachine, Privilege::kSupervisor,
                                  Privilege::kUser};
  p.priv = kModes[rng.next_below(3)];
  constexpr u64 kChunks[] = {1, 2, 3, 7, ~u64{0}, ~u64{0}};
  p.chunk = kChunks[rng.next_below(std::size(kChunks))];
  p.max_steps = 200'000;

  const bool paged = p.priv != Privilege::kMachine;
  const VirtAddr code = paged ? kCodeVa : kMCode;
  const VirtAddr data = paged ? kDataVa : kMData;
  // Start anywhere in the first page, so the code often spans two.
  const u64 entry = code + 4 * rng.next_below(kPageSize / 4 - 16);
  const u64 gen_seed = rng.next_u64();
  auto assemble = [&](const std::vector<u64>& subs, std::vector<u64>* addr) {
    Assembler a(code);
    while (a.pc() < entry) a.emit(0);
    *addr = ProgramGen(gen_seed, p.priv, data, subs).emit(a);
    return a.finish();
  };
  std::vector<u64> subs;
  assemble({}, &subs);
  std::vector<u64> again;
  const std::vector<u32> words = assemble(subs, &again);

  ls.load(kHandler, handler_code());
  ls.set_csr(csr::kMtvec, kHandler);
  ls.set_csr(csr::kMie, u64{1} << csr::irq::kMti);
  if (paged) {
    const u64 ad = rng.next_below(2) == 0 ? pte::kA | pte::kD : 0;
    const u64 user = p.priv == Privilege::kUser ? pte::kU : 0;
    const u64 rwx = pte::kV | pte::kR | pte::kW | pte::kX | user | ad;
    const u64 rw = pte::kV | pte::kR | pte::kW | user | ad;
    const PhysAddr root = ls.new_table();
    ls.map_code(root, code, words, rwx);
    ls.map(root, data, ls.frame(), rw);
    ls.map(root, data + kPageSize, ls.frame(), rw);
    const auto asid = static_cast<u16>(1 + rng.next_below(7));
    ls.set_csr(csr::kSatp, Lockstep::sv39(root, asid));
  } else {
    ls.load(code, words);
    ls.set_csr(csr::kMstatus, csr::mstatus::kMie);
  }
  ls.start(entry, p.priv);
  return p;
}

}  // namespace ptstore::harness
