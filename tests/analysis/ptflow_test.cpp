// ptflow verifier tests: the per-backend spec table, each T/M rule firing
// both intra- and inter-procedurally, sanctioned destinations, mediation
// context propagation through the call graph, and sound degradation on
// unresolvable indirect calls.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "analysis/flow_corpus.h"
#include "analysis/ptflow.h"
#include "isa/assembler.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr u64 kBase = kDramBase + MiB(2);
constexpr u64 kSr = kDramBase + MiB(16);
constexpr u64 kSrEnd = kSr + MiB(1);
constexpr u64 kToken = kSr + 0x800;
constexpr u64 kRegistry = kSr + 0x1000;
constexpr u64 kMacKey = kSr + 0x600;
constexpr u64 kPcb = kSr - MiB(1);
constexpr u64 kScratch = kSr - 0x8000;
constexpr u64 kPtPage = kSr + 0x4000;

Image image_of(
    const std::function<void(Assembler&, std::vector<Symbol>&)>& build) {
  Assembler a(kBase);
  std::vector<Symbol> symbols{{"entry", kBase}};
  build(a, symbols);
  Image img;
  img.base = kBase;
  img.words = a.finish();
  img.symbols = std::move(symbols);
  return img;
}

FlowReport verify(BackendKind k,
                  const std::function<void(Assembler&, std::vector<Symbol>&)>&
                      build) {
  return flow_verify(image_of(build), FlowSpec::for_backend(k, kSr, kSrEnd));
}

bool has_kind(const FlowReport& rep, FlowDiagKind kind) {
  for (const FlowDiag& d : rep.diags) {
    if (d.kind == kind) return true;
  }
  return false;
}

// ---- the spec table -------------------------------------------------------

TEST(FlowSpec, StockHasNothingToProve) {
  const FlowSpec s = FlowSpec::for_backend(BackendKind::kStock, kSr, kSrEnd);
  EXPECT_FALSE(s.t1 || s.t2 || s.t3 || s.m1 || s.m2);
  EXPECT_TRUE(s.secrets.empty());
  EXPECT_TRUE(s.mediation_symbols.empty());
}

TEST(FlowSpec, BackendSheetsMirrorTheAnnotations) {
  const FlowSpec ps = FlowSpec::for_backend(BackendKind::kPtstore, kSr, kSrEnd);
  EXPECT_TRUE(ps.t1 && ps.t2 && ps.t3 && ps.m1 && ps.m2);
  EXPECT_TRUE(ps.pt_insn_mediates);
  ASSERT_EQ(ps.secrets.size(), 1u);
  EXPECT_EQ(ps.secrets[0].cls, kTaintToken);
  EXPECT_EQ(ps.cred_base, kToken);  // Token table is the credential home.

  const FlowSpec dp = FlowSpec::for_backend(BackendKind::kDpti, kSr, kSrEnd);
  EXPECT_FALSE(dp.pt_insn_mediates);
  ASSERT_EQ(dp.mediation_symbols.size(), 1u);
  EXPECT_EQ(dp.mediation_symbols[0], "dpti_domain_enter");
  EXPECT_EQ(dp.cred_base, kRegistry);

  const FlowSpec pa = FlowSpec::for_backend(BackendKind::kPtauth, kSr, kSrEnd);
  ASSERT_EQ(pa.secrets.size(), 2u);
  EXPECT_EQ(pa.cred_base, kPcb);
  ASSERT_EQ(pa.mediation_symbols.size(), 1u);
  EXPECT_EQ(pa.mediation_symbols[0], "ptauth_sign_pte");

  // All four sheets share the PT pool (= secure region) and U-mode window.
  for (const FlowSpec* s : {&ps, &dp, &pa}) {
    EXPECT_EQ(s->pt_base, kSr);
    EXPECT_EQ(s->pt_end, kSrEnd);
    EXPECT_EQ(s->user_base, kUserSpaceBase);
  }
}

TEST(FlowSpec, SecretTaintAndSanctionedDest) {
  const FlowSpec s = FlowSpec::for_backend(BackendKind::kPtauth, kSr, kSrEnd);
  EXPECT_EQ(s.secret_taint(AbsVal::exact(kMacKey)), kTaintMacKey);
  EXPECT_EQ(s.secret_taint(AbsVal::exact(kPcb + 8)), kTaintCredential);
  EXPECT_EQ(s.secret_taint(AbsVal::exact(kScratch)), TaintSet{0});
  // Top pointers are not taint sources (imprecision stays a note, not a
  // universal secret).
  EXPECT_EQ(s.secret_taint(AbsVal::top()), TaintSet{0});
  EXPECT_TRUE(s.sanctioned_dest(AbsVal::exact(kPcb)));
  EXPECT_TRUE(s.sanctioned_dest(AbsVal::exact(kMacKey)));
  EXPECT_FALSE(s.sanctioned_dest(AbsVal::exact(kScratch)));
  EXPECT_FALSE(s.sanctioned_dest(AbsVal::top()));
}

// ---- T rules --------------------------------------------------------------

TEST(Flow, T1SecretEscapeIntraprocedural) {
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kToken);
        a.ld_pt(Reg::kA0, Reg::kT0, 0);
        a.li(Reg::kT1, kScratch);
        a.sd(Reg::kA0, Reg::kT1, 0);
        a.ebreak();
      });
  EXPECT_EQ(rep.violation_count(), 1u);
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kSecretEscapes));
}

TEST(Flow, T1TracksReturnValueAcrossCall) {
  // The secret crosses a function boundary through the bottom-up summary:
  // read_token's ret-taint instantiates at the call site.
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>& sy) {
        auto reader = a.make_label();
        a.jal(Reg::kRa, reader);
        a.addi(Reg::kA1, Reg::kA0, 0);  // Taint follows the move.
        a.li(Reg::kT1, kScratch);
        a.sd(Reg::kA1, Reg::kT1, 0);
        a.ebreak();
        a.bind(reader);
        a.li(Reg::kT0, kToken);
        a.ld_pt(Reg::kA0, Reg::kT0, 0);
        a.ret();
        sy.push_back({"read_token", *a.label_address(reader)});
      });
  EXPECT_EQ(rep.violation_count(), 1u);
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kSecretEscapes));
}

TEST(Flow, T1SanctionedHomeStaysClean) {
  // Token written back into the table; MAC credential into its PCB field.
  const FlowReport ptstore =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kToken);
        a.ld_pt(Reg::kA0, Reg::kT0, 0);
        a.sd_pt(Reg::kA0, Reg::kT0, 8);
        a.ebreak();
      });
  EXPECT_TRUE(ptstore.clean());

  const FlowReport ptauth =
      verify(BackendKind::kPtauth, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kMacKey);
        a.ld(Reg::kA0, Reg::kT0, 0);
        a.li(Reg::kT1, kPcb);
        a.sd(Reg::kA0, Reg::kT1, 0);  // Sanctioned credential home.
        a.ebreak();
      });
  EXPECT_TRUE(ptauth.clean());
}

TEST(Flow, T2SecretToUserWindow) {
  const FlowReport rep =
      verify(BackendKind::kDpti, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kRegistry);
        a.ld(Reg::kA0, Reg::kT0, 0);
        a.li(Reg::kT1, kUserSpaceBase + 0x2000);
        a.sd(Reg::kA0, Reg::kT1, 0);
        a.ebreak();
      });
  EXPECT_EQ(rep.violation_count(), 1u);
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kSecretToUser));
}

TEST(Flow, T3SecretIntoSinkArgument) {
  const FlowReport rep =
      verify(BackendKind::kPtauth, [](Assembler& a, std::vector<Symbol>& sy) {
        auto sink = a.make_label();
        a.li(Reg::kT0, kMacKey);
        a.ld(Reg::kA0, Reg::kT0, 0);
        a.jal(Reg::kRa, sink);
        a.ebreak();
        a.bind(sink);
        a.ret();
        sy.push_back({"telemetry_log", *a.label_address(sink)});
      });
  EXPECT_EQ(rep.violation_count(), 1u);
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kSecretToSink));
}

TEST(Flow, T3CleanArgumentToSinkIsFine) {
  const FlowReport rep =
      verify(BackendKind::kPtauth, [](Assembler& a, std::vector<Symbol>& sy) {
        auto sink = a.make_label();
        a.li(Reg::kA0, 42);  // A constant, not a secret.
        a.jal(Reg::kRa, sink);
        a.ebreak();
        a.bind(sink);
        a.ret();
        sy.push_back({"trace_emit", *a.label_address(sink)});
      });
  EXPECT_TRUE(rep.clean());
}

// ---- M rules --------------------------------------------------------------

TEST(Flow, M1UnmediatedPtStoreFires) {
  const FlowReport rep =
      verify(BackendKind::kDpti, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kPtPage);
        a.sd(Reg::kZero, Reg::kT0, 0);
        a.ebreak();
      });
  EXPECT_EQ(rep.violation_count(), 1u);
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kUnmediatedPtStore));
}

TEST(Flow, M1MediationFlagFlowsIntoCallees) {
  // The caller enters the domain, then delegates the PT write to a helper.
  // The mediation must-flag reaches the helper through its calling context.
  const FlowReport rep =
      verify(BackendKind::kDpti, [](Assembler& a, std::vector<Symbol>& sy) {
        auto enter = a.make_label();
        auto write = a.make_label();
        a.jal(Reg::kRa, enter);
        a.jal(Reg::kRa, write);
        a.ebreak();
        a.bind(enter);
        a.ret();
        sy.push_back({"dpti_domain_enter", *a.label_address(enter)});
        a.bind(write);
        a.li(Reg::kT0, kPtPage);
        a.sd(Reg::kZero, Reg::kT0, 0);
        a.ret();
        sy.push_back({"pt_write", *a.label_address(write)});
      });
  EXPECT_TRUE(rep.clean());
}

TEST(Flow, M1OneUnmediatedCallSiteKillsTheMustFlag) {
  // The helper is called both inside and outside the domain: the context
  // join ANDs the flag away, and the store is flagged.
  const FlowReport rep =
      verify(BackendKind::kDpti, [](Assembler& a, std::vector<Symbol>& sy) {
        auto enter = a.make_label();
        auto write = a.make_label();
        a.jal(Reg::kRa, write);  // Unmediated call site.
        a.jal(Reg::kRa, enter);
        a.jal(Reg::kRa, write);  // Mediated call site.
        a.ebreak();
        a.bind(enter);
        a.ret();
        sy.push_back({"dpti_domain_enter", *a.label_address(enter)});
        a.bind(write);
        a.li(Reg::kT0, kPtPage);
        a.sd(Reg::kZero, Reg::kT0, 0);
        a.ret();
        sy.push_back({"pt_write", *a.label_address(write)});
      });
  EXPECT_EQ(rep.violation_count(), 1u);
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kUnmediatedPtStore));
}

TEST(Flow, M1PtInsnIsItsOwnMediation) {
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kPtPage);
        a.sd_pt(Reg::kZero, Reg::kT0, 0);
        a.ebreak();
      });
  EXPECT_TRUE(rep.clean());
}

TEST(Flow, M2OrderingBothWays) {
  const auto bind_body = [](Assembler& a, std::vector<Symbol>& sy,
                            bool cred_first) {
    auto bind = a.make_label();
    a.jal(Reg::kRa, bind);
    a.ebreak();
    a.bind(bind);
    if (cred_first) {
      a.li(Reg::kT0, kToken);
      a.sd_pt(Reg::kT2, Reg::kT0, 0);
      a.li(Reg::kT1, kPtPage >> 12);
      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT1);
    } else {
      a.li(Reg::kT1, kPtPage >> 12);
      a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT1);
      a.li(Reg::kT0, kToken);
      a.sd_pt(Reg::kT2, Reg::kT0, 0);
    }
    a.ret();
    sy.push_back({"bind_root", *a.label_address(bind)});
  };

  const FlowReport good = verify(
      BackendKind::kPtstore,
      [&](Assembler& a, std::vector<Symbol>& sy) { bind_body(a, sy, true); });
  EXPECT_TRUE(good.clean());

  const FlowReport bad = verify(
      BackendKind::kPtstore,
      [&](Assembler& a, std::vector<Symbol>& sy) { bind_body(a, sy, false); });
  EXPECT_EQ(bad.violation_count(), 1u);
  EXPECT_TRUE(has_kind(bad, FlowDiagKind::kCredAfterWalkable));
}

TEST(Flow, M2OnlyGovernsBindSymbols) {
  // A satp write outside bind/rebind paths is R3's business (ptlint), not
  // M2's: no flow violation.
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT1, kPtPage >> 12);
        a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT1);
        a.ebreak();
      });
  EXPECT_TRUE(rep.clean());
}

// ---- degradation & backends off ------------------------------------------

TEST(Flow, UnresolvedIndirectCallIsANoteNotACrash) {
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>&) {
        a.ld(Reg::kT0, Reg::kA0, 0);
        a.jalr(Reg::kRa, Reg::kT0, 0);
        a.ebreak();
      });
  EXPECT_TRUE(rep.clean());  // Notes only.
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kUnresolvedCall));
  EXPECT_GE(rep.unresolved_calls, 1u);
}

TEST(Flow, TopAddressedPtStoreDegradesToNote) {
  const FlowReport rep =
      verify(BackendKind::kDpti, [](Assembler& a, std::vector<Symbol>&) {
        a.ld(Reg::kT0, Reg::kA0, 0);  // Unconstrained pointer.
        a.sd(Reg::kZero, Reg::kT0, 0);
        a.ebreak();
      });
  EXPECT_TRUE(rep.clean());
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kUnconstrainedStore));
}

TEST(Flow, StockBackendAcceptsEverything) {
  const FlowReport rep =
      verify(BackendKind::kStock, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kToken);
        a.ld(Reg::kA0, Reg::kT0, 0);
        a.li(Reg::kT1, kUserSpaceBase + 0x1000);
        a.sd(Reg::kA0, Reg::kT1, 0);
        a.li(Reg::kT0, kPtPage);
        a.sd(Reg::kZero, Reg::kT0, 0);
        a.ebreak();
      });
  EXPECT_TRUE(rep.clean());
}

TEST(Flow, ReportFormatNamesRuleAndFunction) {
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>&) {
        a.li(Reg::kT0, kToken);
        a.ld_pt(Reg::kA0, Reg::kT0, 0);
        a.li(Reg::kT1, kScratch);
        a.sd(Reg::kA0, Reg::kT1, 0);
        a.ebreak();
      });
  const std::string text = rep.format();
  EXPECT_NE(text.find("secret-escapes"), std::string::npos);
  EXPECT_NE(text.find("token"), std::string::npos);
  EXPECT_NE(text.find("entry"), std::string::npos);  // locate() context.
  ASSERT_FALSE(rep.violations().empty());
  EXPECT_FALSE(rep.violations()[0]->context.empty());
}

// ---- convergence: no round caps --------------------------------------------

TEST(Flow, RecursionSummariesIterateToAFixpoint) {
  // One 17-function recursion SCC: r calls c16..c1, each ci calls r and then
  // c(i+1), and c16 returns the token. The token reaches c1's return value
  // only after the summary has climbed all 16 levels of the ring, so a
  // summary pass that stops after a fixed number of rounds misses the leak.
  constexpr int kDepth = 16;
  const FlowReport rep =
      verify(BackendKind::kPtstore, [](Assembler& a, std::vector<Symbol>& sy) {
        auto r = a.make_label();
        std::vector<Assembler::Label> c;
        for (int i = 0; i <= kDepth; ++i) c.push_back(a.make_label());
        a.jal(Reg::kRa, c[1]);
        a.li(Reg::kT1, kScratch);
        a.sd(Reg::kA0, Reg::kT1, 0);
        a.ebreak();
        a.bind(r);
        for (int i = kDepth; i >= 1; --i) a.jal(Reg::kRa, c[i]);
        a.ret();
        sy.push_back({"r", *a.label_address(r)});
        for (int i = 1; i <= kDepth; ++i) {
          a.bind(c[i]);
          a.jal(Reg::kRa, r);
          if (i < kDepth) {
            a.jal(Reg::kRa, c[i + 1]);
          } else {
            a.li(Reg::kT0, kToken);
            a.ld_pt(Reg::kA0, Reg::kT0, 0);
          }
          a.ret();
          sy.push_back({"c" + std::to_string(i), *a.label_address(c[i])});
        }
      });
  EXPECT_EQ(rep.violation_count(), 1u) << rep.format();
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kSecretEscapes)) << rep.format();
}

TEST(Flow, CallGraphDiscoveryFollowsLongPointerChains) {
  // entry -> f1 -> ... -> f20 through li-materialised pointers: each jalr
  // target only becomes resolvable once its caller is a known function, so
  // discovery needs one round per link. f20 leaks the token to scratch.
  constexpr int kDepth = 20;
  constexpr u64 kSlot = 0x40;  // Function i lives at kBase + i * kSlot.
  const Image img = image_of([](Assembler& a, std::vector<Symbol>& sy) {
    for (int i = 0; i <= kDepth; ++i) {
      while (a.pc() < kBase + i * kSlot) a.nop();
      if (i > 0) sy.push_back({"f" + std::to_string(i), a.pc()});
      if (i < kDepth) {
        a.li(Reg::kT0, kBase + (i + 1) * kSlot);
        a.jalr(Reg::kRa, Reg::kT0, 0);
      } else {
        a.li(Reg::kT0, kToken);
        a.ld_pt(Reg::kA0, Reg::kT0, 0);
        a.li(Reg::kT1, kScratch);
        a.sd(Reg::kA0, Reg::kT1, 0);
      }
      if (i == 0) {
        a.ebreak();
      } else {
        a.ret();
      }
    }
  });
  const CallGraph cg = CallGraph::build(img);
  EXPECT_EQ(cg.functions().size(), static_cast<size_t>(kDepth + 1));
  EXPECT_NE(cg.function_at(kBase + kDepth * kSlot), nullptr);

  const FlowReport rep =
      flow_verify(img, FlowSpec::for_backend(BackendKind::kPtstore, kSr, kSrEnd));
  EXPECT_EQ(rep.function_count, static_cast<size_t>(kDepth + 1));
  EXPECT_EQ(rep.violation_count(), 1u) << rep.format();
  EXPECT_TRUE(has_kind(rep, FlowDiagKind::kSecretEscapes)) << rep.format();
}

}  // namespace
}  // namespace ptstore::analysis
