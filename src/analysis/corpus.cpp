#include "analysis/corpus.h"

#include <functional>

#include "analysis/ptmc.h"
#include "isa/assembler.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Assembler;
using isa::Reg;

Image build(const std::function<void(Assembler&, std::vector<Symbol>&)>& body) {
  Assembler a(kCorpusBase);
  std::vector<Symbol> symbols{{"entry", kCorpusBase}};
  body(a, symbols);
  Image img;
  img.base = kCorpusBase;
  img.words = a.finish();
  img.symbols = std::move(symbols);
  return img;
}

// ---------------------------------------------------------------------------
// ptmc-derived entries: each defence-off mutation's shortest counterexample,
// re-assembled as straight-line guest code over a fixed address map so the
// *static* verifier flags the same attack step the model checker found.
//
// Model page i sits at sr_base + (i - 2) * 0x1000: with the initial
// boundary of 2, pages 2..3 land inside the secure region and pages 0..1
// just below it — the same geometry the abstract state starts from.

constexpr u64 kPtmcPageSize = 0x1000;

u64 ptmc_page_addr(u8 page, u64 sr_base) {
  return sr_base + (static_cast<i64>(page) - 2) * kPtmcPageSize;
}
u64 ptmc_token_slot(u8 slot, u64 sr_base) {
  return sr_base + 0x800 + slot * 16u;  // Token table: secure region, page 2.
}
u64 ptmc_pcb(u8 proc, u64 sr_base) {
  return sr_base - MiB(1) + proc * 0x100u;  // PCBs: normal kernel memory.
}
u64 ptmc_freelist(u64 sr_base) {
  return sr_base - MiB(1) + 0x800;  // Allocator free-list head: normal memory.
}

/// Emit the guest-code rendering of one counterexample step. Kernel ops use
/// li-materialised (provably in-region) pt-accesses and token-validated satp
/// writes exactly where the mutated config keeps the defence on; each
/// disabled defence surfaces as the ptlint rule that mirrors it.
void emit_ptmc_op(Assembler& a, const ptmc::Step& step,
                  const ptmc::State& prev, const ptmc::ModelConfig& cfg,
                  u64 sr_base, Assembler::Label validate, bool* needs_validate) {
  using ptmc::OpKind;
  const ptmc::Op& op = step.op;
  switch (op.kind) {
    case OpKind::kSpawn: {
      const u8 root = step.after.procs[op.a].ghost_root;
      a.li(Reg::kT0, ptmc_page_addr(root, sr_base));
      a.sd_pt(Reg::kZero, Reg::kT0, 0);  // Zero-fill the fresh root.
      a.li(Reg::kT1, ptmc_token_slot(op.a, sr_base));
      a.sd_pt(Reg::kT0, Reg::kT1, 0);  // Tokenise it.
      return;
    }
    case OpKind::kExitMm:
    case OpKind::kFreePt: {
      a.li(Reg::kT0, ptmc_token_slot(op.a, sr_base));
      a.sd_pt(Reg::kZero, Reg::kT0, 0);
      return;
    }
    case OpKind::kSwitchMm: {
      if (cfg.token_check) {
        *needs_validate = true;
        a.jal(Reg::kRa, validate);
      }
      a.li(Reg::kT1, ptmc_page_addr(step.after.procs[op.a].pgd, sr_base) >> 12);
      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT1);
      return;
    }
    case OpKind::kAllocPt: {
      if (prev.forced_alloc != ptmc::kNoPage &&
          step.after.forced_alloc == ptmc::kNoPage) {
        // The kernel pops the attacker-planted free-list entry and writes PT
        // data through it. The pointer came from memory, so it is statically
        // unconstrained — with the zero-check gone nothing re-validates it.
        a.li(Reg::kT0, ptmc_freelist(sr_base));
        a.ld(Reg::kT0, Reg::kT0, 0);
        a.sd_pt(Reg::kZero, Reg::kT0, 0);
      } else {
        a.li(Reg::kT0,
             ptmc_page_addr(step.after.procs[op.a].extra_pt, sr_base));
        a.sd_pt(Reg::kZero, Reg::kT0, 0);
      }
      return;
    }
    case OpKind::kGrow:
      a.nop();  // Monitor-side ecall; no guest instruction to lint.
      return;
    case OpKind::kUserAccess: {
      const u8 root = step.after.satp.root;
      a.li(Reg::kT0,
           ptmc_page_addr(root == ptmc::kNoPage ? u8{2} : root, sr_base));
      a.ld(Reg::kA0, Reg::kT0, 0);  // The PTW consumes a PTE from the root.
      return;
    }
    case OpKind::kAtkWritePage:
      a.li(Reg::kT0, ptmc_page_addr(op.a, sr_base));
      a.li(Reg::kT1, 0x41414141);
      a.sd(Reg::kT1, Reg::kT0, 0);
      return;
    case OpKind::kAtkRedirectPgd:
      a.li(Reg::kT0, ptmc_pcb(op.a, sr_base));
      a.li(Reg::kT1, ptmc_page_addr(op.b, sr_base));
      a.sd(Reg::kT1, Reg::kT0, 0);
      return;
    case OpKind::kAtkRedirectToken:
      a.li(Reg::kT0, ptmc_pcb(op.a, sr_base) + 8);
      a.li(Reg::kT1, op.b);
      a.sd(Reg::kT1, Reg::kT0, 0);
      return;
    case OpKind::kAtkForgeToken:
      a.li(Reg::kT0, ptmc_token_slot(op.a, sr_base));
      a.li(Reg::kT1, ptmc_page_addr(op.b, sr_base));
      a.sd(Reg::kT1, Reg::kT0, 0);
      return;
    case OpKind::kAtkCorruptAllocator:
      a.li(Reg::kT0, ptmc_freelist(sr_base));
      a.li(Reg::kT1, ptmc_page_addr(op.a, sr_base));
      a.sd(Reg::kT1, Reg::kT0, 0);
      return;
    case OpKind::kAtkSatpWrite:
      a.li(Reg::kT1, ptmc_page_addr(op.a, sr_base) >> 12);
      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT1);
      return;
  }
}

/// Which ptlint rule the mutation's attack step must trip once re-assembled.
DiagKind ptmc_expected_kind(u8 must_break) {
  switch (must_break) {
    case ptmc::kP1:
    case ptmc::kP2:
      return DiagKind::kSatpWriteUnvalidated;  // Unvalidated root install.
    case ptmc::kP3:
      return DiagKind::kRegularTouchesSecure;  // Token forged by regular store.
    case ptmc::kP4:
      return DiagKind::kPtInsnEscapes;  // PT data through an unchecked pointer.
    default:
      return DiagKind::kRegularTouchesSecure;
  }
}

void append_ptmc_entries(std::vector<CorpusEntry>& corpus, u64 sr_base) {
  for (const ptmc::MutationEntry& m : ptmc::mutation_matrix(ptmc::ModelConfig{})) {
    if (m.must_break == 0) continue;  // "ptw-alone" breaks nothing by design.
    ptmc::ModelConfig cfg = m.cfg;
    cfg.stop_after_violated = m.must_break;
    const ptmc::CheckResult res = ptmc::check(cfg);
    unsigned prop = 0;
    while (prop < ptmc::kNumProps && !(m.must_break & (1u << prop))) ++prop;
    const ptmc::Counterexample* ce = res.counterexample_for(prop);
    if (ce == nullptr) continue;  // Guarded by ptmc's own matrix tests.

    std::string desc = std::string(ptmc::prop_name(prop)) + " via '" +
                       m.name + "' mutation:";
    for (const ptmc::Step& s : ce->steps) desc += " " + describe(s.op) + ";";

    corpus.push_back(
        {std::string("ptmc_") + m.name, desc,
         build([&](Assembler& a, std::vector<Symbol>& symbols) {
           auto validate = a.make_label();
           bool needs_validate = false;
           ptmc::State prev = ptmc::State::initial();
           for (const ptmc::Step& s : ce->steps) {
             emit_ptmc_op(a, s, prev, ce->cfg, sr_base, validate,
                          &needs_validate);
             prev = s.after;
           }
           a.ebreak();
           if (needs_validate) {
             a.bind(validate);
             a.ret();
             symbols.push_back(
                 {"token_validate", *a.label_address(validate)});
           }
         }),
         false, ptmc_expected_kind(m.must_break)});
  }
}

}  // namespace

std::vector<CorpusEntry> violation_corpus(u64 sr_base, u64 sr_end) {
  (void)sr_end;
  std::vector<CorpusEntry> corpus;

  // 1. The classic PT-Injection write path: a plain sd aimed straight at a
  //    page table in the secure region (paper Fig. 2 attack 1).
  corpus.push_back({"raw_sd_secure",
                    "regular store with an exact secure-region target",
                    build([&](Assembler& a, std::vector<Symbol>&) {
                      a.li(Reg::kT0, sr_base);
                      a.sd(Reg::kZero, Reg::kT0, 0);
                      a.ebreak();
                    }),
                    false, DiagKind::kRegularTouchesSecure});

  // 2. A pt-access whose base escaped the region: sd.pt aimed at normal
  //    memory would let the privileged window write anywhere.
  corpus.push_back({"sdpt_escape",
                    "sd.pt whose base address lies below the secure region",
                    build([&](Assembler& a, std::vector<Symbol>&) {
                      a.li(Reg::kT0, sr_base - 0x1000);
                      a.sd_pt(Reg::kZero, Reg::kT0, 0);
                      a.ebreak();
                    }),
                    false, DiagKind::kPtInsnEscapes});

  // 3. Computed address: a masked, scaled index added to the region base —
  //    the whole derived interval [sr_base, sr_base+0x7F8] is secure.
  corpus.push_back({"computed_leak",
                    "store through a computed index landing in the region",
                    build([&](Assembler& a, std::vector<Symbol>&) {
                      a.li(Reg::kT0, sr_base);
                      a.andi(Reg::kT1, Reg::kA0, 0xFF);
                      a.slli(Reg::kT1, Reg::kT1, 3);
                      a.add(Reg::kT0, Reg::kT0, Reg::kT1);
                      a.sd(Reg::kZero, Reg::kT0, 0);
                      a.ebreak();
                    }),
                    false, DiagKind::kRegularTouchesSecure});

  // 4. PT-Reuse enabler: writing satp without first validating the token
  //    binding (paper §III-C3).
  corpus.push_back({"satp_unvalidated",
                    "satp write with no dominating token-validation call",
                    build([&](Assembler& a, std::vector<Symbol>&) {
                      a.li(Reg::kT0, 1);
                      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT0);
                      a.ebreak();
                    }),
                    false, DiagKind::kSatpWriteUnvalidated});

  // 5. Mis-scoped PMP: S-mode code programming pmpaddr8 would move the
  //    secure-region boundary without the monitor (paper §IV-B).
  corpus.push_back({"pmp_mis_scope",
                    "guest code rewrites the monitor's TOR boundary entry",
                    build([&](Assembler& a, std::vector<Symbol>&) {
                      a.li(Reg::kT0, (sr_base - MiB(1)) >> 2);
                      a.csrrw(Reg::kZero, isa::csr::kPmpaddr0 + 8, Reg::kT0);
                      a.ebreak();
                    }),
                    false, DiagKind::kPmpScopeViolation});

  // 6. Benign near-miss: everything here skirts a rule without breaking it —
  //    a store 8 bytes below the region, an ld.pt properly inside it, and a
  //    satp write dominated by a token_validate call. Must stay clean.
  corpus.push_back({"benign_near_miss",
                    "boundary-adjacent but rule-abiding accesses",
                    build([&](Assembler& a, std::vector<Symbol>& symbols) {
                      auto validate = a.make_label();
                      a.li(Reg::kT0, sr_base);
                      a.sd(Reg::kZero, Reg::kT0, -8);
                      a.ld_pt(Reg::kT2, Reg::kT0, 0);
                      a.jal(Reg::kRa, validate);
                      a.li(Reg::kT1, 1);
                      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT1);
                      a.ebreak();
                      a.bind(validate);
                      a.ret();
                      symbols.push_back(
                          {"token_validate", *a.label_address(validate)});
                    }),
                    true, DiagKind{}});

  // 7-10. The ptmc mutation matrix, re-assembled: each defence-off
  // counterexample becomes a guest image whose attack step ptlint must flag.
  append_ptmc_entries(corpus, sr_base);

  // 11. Stack spill into the region: a kernel stack carved out of the secure
  //     region, at a 16-aligned offset loaded from memory, takes a frame and
  //     spills ra below it — a regular store into page-table memory. It also
  //     reaches three rules of the shared Domain that no other image does:
  //     - `addi sp, sp, -32` and `sd ra, -8(sp)` wrap both ends of the
  //       stack interval, which add keeps exact;
  //     - the loop header loses one known bit of t2 on each of four back
  //       edges before the fifth moves sp to the second stack; joins that
  //       only drop known bits do not count toward widening, so sp keeps
  //       its interval;
  //     - a scaled index built from a loaded value (`slli`, `andi -16`) is
  //       an aligned unknown pointer, as unconstrained as Top: the store
  //       through it is a note, not a violation.
  corpus.push_back({"stack_spill_secure",
                    "ra spilled below an sp that lies in the secure region",
                    build([&](Assembler& a, std::vector<Symbol>&) {
                      auto loop = a.make_label();
                      Assembler::Label edge[5];
                      for (auto& e : edge) e = a.make_label();
                      a.ld(Reg::kT1, Reg::kA0, 0);
                      a.andi(Reg::kT1, Reg::kT1, 0xF0);
                      a.li(Reg::kSp, sr_base + 0x1000);
                      a.add(Reg::kSp, Reg::kSp, Reg::kT1);
                      a.addi(Reg::kS1, Reg::kSp, 0x100);  // The second stack.
                      a.li(Reg::kT2, 0x100);
                      a.beqz(Reg::kA1, loop);
                      // t2: [0x100, 0xF00], bits 0-7 known zero.
                      a.li(Reg::kT2, 0xF00);
                      a.bind(loop);
                      a.addi(Reg::kSp, Reg::kSp, -32);
                      a.sd(Reg::kRa, Reg::kSp, -8);  // The seeded violation.
                      a.addi(Reg::kSp, Reg::kSp, 32);
                      a.ld(Reg::kT3, Reg::kA2, 0);
                      a.slli(Reg::kT3, Reg::kT3, 3);
                      a.andi(Reg::kT3, Reg::kT3, -16);
                      a.sd(Reg::kZero, Reg::kT3, 0);  // Unconstrained: a note.
                      const Reg conds[5] = {Reg::kA3, Reg::kA4, Reg::kA5,
                                            Reg::kA6, Reg::kA7};
                      for (unsigned i = 0; i < 5; ++i) {
                        a.bnez(conds[i], edge[i]);
                      }
                      a.ebreak();
                      for (unsigned bit = 0; bit < 4; ++bit) {
                        a.bind(edge[bit]);
                        a.li(Reg::kT2, 0x100 | (u64{1} << bit));
                        a.j(loop);
                      }
                      a.bind(edge[4]);
                      a.mv(Reg::kSp, Reg::kS1);
                      a.j(loop);
                    }),
                    false, DiagKind::kRegularTouchesSecure});

  return corpus;
}

const CorpusEntry* find_entry(const std::vector<CorpusEntry>& corpus,
                              const std::string& name) {
  for (const CorpusEntry& e : corpus) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

}  // namespace ptstore::analysis
