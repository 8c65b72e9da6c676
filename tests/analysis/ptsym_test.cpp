// End-to-end ptsym gates: every seeded corpus violation refines to a
// WITNESSED verdict whose trace replays on the concrete System, clean
// references yield zero verdicts, an infeasible-but-CFG-reachable
// diagnostic earns BOUNDED-UNREACHABLE, and budget cuts earn UNKNOWN.
#include "analysis/symexec/ptsym.h"

#include <gtest/gtest.h>

#include "analysis/corpus.h"
#include "analysis/flow_corpus.h"
#include "analysis/ptflow.h"
#include "analysis/ptlint.h"
#include "harness/witness_replay.h"
#include "isa/assembler.h"

namespace ptstore::analysis::symexec {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr u64 kSrEnd = kDramBase + MiB(512);
constexpr u64 kSrBase = kSrEnd - MiB(64);

LintConfig lint_cfg() {
  LintConfig cfg;
  cfg.sr_base = kSrBase;
  cfg.sr_end = kSrEnd;
  return cfg;
}

TEST(Ptsym, EveryLintCorpusViolationIsWitnessedAndReplays) {
  const LintConfig cfg = lint_cfg();
  for (const CorpusEntry& e : violation_corpus(kSrBase, kSrEnd)) {
    const LintReport rep = lint_image(e.image, cfg);
    const auto verdicts = symexec_lint(e.image, rep, cfg);
    if (e.expect_clean) {
      EXPECT_TRUE(verdicts.empty()) << e.name;
      continue;
    }
    bool witnessed = false;
    for (const SymVerdict& v : verdicts) {
      if (v.kind_index != static_cast<unsigned>(e.expected) ||
          v.verdict != Verdict::kWitnessed)
        continue;
      ASSERT_TRUE(v.witness.has_value()) << e.name;
      const auto rr = attacks::replay_witness(e.image, *v.witness,
                                              BackendKind::kPtstore);
      EXPECT_TRUE(rr.ok) << e.name << ": " << rr.detail;
      witnessed = rr.ok;
    }
    EXPECT_TRUE(witnessed) << e.name << ": expected "
                           << diag_kind_name(e.expected) << " WITNESSED";
  }
}

TEST(Ptsym, EveryFlowCorpusViolationIsWitnessedAndReplays) {
  for (const FlowCorpusEntry& e : flow_violation_corpus(kSrBase, kSrEnd)) {
    const FlowSpec spec = FlowSpec::for_backend(e.backend, kSrBase, kSrEnd);
    const FlowReport rep = flow_verify(e.image, spec);
    const auto verdicts = symexec_flow(e.image, rep, spec);
    if (e.expect_clean) {
      EXPECT_TRUE(verdicts.empty()) << e.name;
      continue;
    }
    bool witnessed = false;
    for (const SymVerdict& v : verdicts) {
      if (v.kind_index != static_cast<unsigned>(e.expected) ||
          v.verdict != Verdict::kWitnessed)
        continue;
      ASSERT_TRUE(v.witness.has_value()) << e.name;
      const auto rr = attacks::replay_witness(e.image, *v.witness, e.backend);
      EXPECT_TRUE(rr.ok) << e.name << ": " << rr.detail;
      witnessed = rr.ok;
    }
    EXPECT_TRUE(witnessed) << e.name << ": expected "
                           << flow_diag_kind_name(e.expected) << " WITNESSED";
  }
}

TEST(Ptsym, CleanReferenceKernelsYieldZeroVerdicts) {
  for (const BackendKind k : {BackendKind::kStock, BackendKind::kPtstore,
                              BackendKind::kDpti, BackendKind::kPtauth}) {
    const Image img = reference_kernel_image(k, kSrBase, kSrEnd);
    const FlowSpec spec = FlowSpec::for_backend(k, kSrBase, kSrEnd);
    const FlowReport rep = flow_verify(img, spec);
    EXPECT_TRUE(rep.clean()) << to_string(k);
    EXPECT_TRUE(symexec_flow(img, rep, spec).empty()) << to_string(k);
  }
}

/// A store into the secure region that is CFG-reachable (so the
/// path-insensitive linter flags it) but path-infeasible: the two branches
/// guarding it require a0 != 0 and a0 == 0 simultaneously.
Image contradictory_guard_image() {
  Assembler a(kCorpusBase);
  auto set = a.make_label();
  auto violate = a.make_label();
  auto out = a.make_label();
  a.bne(Reg::kA0, Reg::kZero, set);  // a0 != 0 -> set
  a.j(out);
  a.bind(set);
  a.beq(Reg::kA0, Reg::kZero, violate);  // needs a0 == 0: contradiction
  a.j(out);
  a.bind(violate);
  a.li(Reg::kT1, kSrBase);
  a.sd(Reg::kZero, Reg::kT1, 0);  // R1 violation, never executable
  a.bind(out);
  a.ebreak();
  Image img;
  img.base = kCorpusBase;
  img.words = a.finish();
  img.symbols = {{"entry", kCorpusBase}};
  return img;
}

TEST(Ptsym, InfeasiblePathIsBoundedUnreachable) {
  const Image img = contradictory_guard_image();
  const LintConfig cfg = lint_cfg();
  const LintReport rep = lint_image(img, cfg);
  ASSERT_GE(rep.violation_count(), size_t{1});
  const auto verdicts = symexec_lint(img, rep, cfg);
  bool saw_r1 = false;
  for (const SymVerdict& v : verdicts) {
    if (v.kind_index !=
        static_cast<unsigned>(DiagKind::kRegularTouchesSecure))
      continue;
    saw_r1 = true;
    EXPECT_EQ(v.verdict, Verdict::kBoundedUnreachable) << v.detail;
    EXPECT_GT(v.paths_explored, 0u);
  }
  EXPECT_TRUE(saw_r1);
}

TEST(Ptsym, StepBudgetCutIsUnknownNotUnreachable) {
  // raw_sd_secure needs an 8-instruction path; a 4-step budget truncates
  // every path, which must surface as UNKNOWN — never BOUNDED-UNREACHABLE.
  const LintConfig cfg = lint_cfg();
  for (const CorpusEntry& e : violation_corpus(kSrBase, kSrEnd)) {
    if (e.name != "raw_sd_secure") continue;
    const LintReport rep = lint_image(e.image, cfg);
    WitnessBudget tiny;
    tiny.max_steps = 4;
    const auto verdicts = symexec_lint(e.image, rep, cfg, tiny);
    ASSERT_FALSE(verdicts.empty());
    for (const SymVerdict& v : verdicts)
      EXPECT_EQ(v.verdict, Verdict::kUnknown) << v.detail;

    // The default budget finds the witness on the same image.
    const auto full = symexec_lint(e.image, rep, cfg);
    bool witnessed = false;
    for (const SymVerdict& v : full)
      witnessed |= v.verdict == Verdict::kWitnessed;
    EXPECT_TRUE(witnessed);
  }
}

TEST(Ptsym, WitnessJsonCarriesSchemaAndTrace) {
  const LintConfig cfg = lint_cfg();
  for (const CorpusEntry& e : violation_corpus(kSrBase, kSrEnd)) {
    if (e.name != "raw_sd_secure") continue;
    const LintReport rep = lint_image(e.image, cfg);
    const auto verdicts = symexec_lint(e.image, rep, cfg);
    const std::string json =
        witnesses_to_json(verdicts, "corpus:raw_sd_secure", "ptstore");
    EXPECT_NE(json.find("\"schema\":\"ptsym-witness-v1\""), std::string::npos);
    EXPECT_NE(json.find("\"verdict\":\"WITNESSED\""), std::string::npos);
    EXPECT_NE(json.find("\"path\":"), std::string::npos);
  }
}

}  // namespace
}  // namespace ptstore::analysis::symexec
