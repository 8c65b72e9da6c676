// The seeded-violation corpus must behave exactly as advertised: every
// attack-shaped image is flagged with its expected rule, the benign
// near-miss stays clean, and no image is flagged for anything *else* —
// false positives on the near-misses would make the verifier unusable.
#include <gtest/gtest.h>

#include "analysis/corpus.h"

namespace ptstore::analysis {
namespace {

constexpr u64 kSrBase = 0x9C00'0000;
constexpr u64 kSrEnd = 0xA000'0000;

LintConfig config() {
  LintConfig cfg;
  cfg.sr_base = kSrBase;
  cfg.sr_end = kSrEnd;
  return cfg;
}

TEST(Corpus, HasElevenEntriesWithExpectedShapes) {
  const auto corpus = violation_corpus(kSrBase, kSrEnd);
  ASSERT_EQ(corpus.size(), 11u);
  size_t clean = 0;
  for (const CorpusEntry& e : corpus) {
    EXPECT_FALSE(e.image.words.empty()) << e.name;
    clean += e.expect_clean ? 1 : 0;
  }
  EXPECT_EQ(clean, 1u);  // exactly the benign near-miss
  EXPECT_NE(find_entry(corpus, "benign_near_miss"), nullptr);
  EXPECT_EQ(find_entry(corpus, "no_such_entry"), nullptr);
}

TEST(Corpus, PtmcEntriesCoverAllFourMutations) {
  // One re-assembled counterexample per defence-off mutation, each expecting
  // the ptlint rule that statically mirrors the disabled defence.
  const auto corpus = violation_corpus(kSrBase, kSrEnd);
  const CorpusEntry* ptw = find_entry(corpus, "ptmc_ptw");
  const CorpusEntry* token = find_entry(corpus, "ptmc_token");
  const CorpusEntry* sbit = find_entry(corpus, "ptmc_sbit");
  const CorpusEntry* zero = find_entry(corpus, "ptmc_zero");
  ASSERT_NE(ptw, nullptr);
  ASSERT_NE(token, nullptr);
  ASSERT_NE(sbit, nullptr);
  ASSERT_NE(zero, nullptr);
  EXPECT_EQ(ptw->expected, DiagKind::kSatpWriteUnvalidated);
  EXPECT_EQ(token->expected, DiagKind::kSatpWriteUnvalidated);
  EXPECT_EQ(sbit->expected, DiagKind::kRegularTouchesSecure);
  EXPECT_EQ(zero->expected, DiagKind::kPtInsnEscapes);
}

TEST(Corpus, EverySeededViolationIsFlagged) {
  const auto corpus = violation_corpus(kSrBase, kSrEnd);
  for (const CorpusEntry& e : corpus) {
    if (e.expect_clean) continue;
    const LintReport rep = lint_image(e.image, config());
    bool found = false;
    for (const Diag* d : rep.violations()) {
      if (d->kind == e.expected) found = true;
    }
    EXPECT_TRUE(found) << e.name << " expected " << diag_kind_name(e.expected)
                       << "\n" << rep.format();
  }
}

TEST(Corpus, SeededImagesAreFlaggedOnlyForTheirRule) {
  const auto corpus = violation_corpus(kSrBase, kSrEnd);
  for (const CorpusEntry& e : corpus) {
    if (e.expect_clean) continue;
    const LintReport rep = lint_image(e.image, config());
    for (const Diag* d : rep.violations()) {
      EXPECT_EQ(d->kind, e.expected)
          << e.name << " also flagged " << diag_kind_name(d->kind) << "\n"
          << rep.format();
    }
  }
}

TEST(Corpus, BenignNearMissStaysClean) {
  const auto corpus = violation_corpus(kSrBase, kSrEnd);
  const CorpusEntry* benign = find_entry(corpus, "benign_near_miss");
  ASSERT_NE(benign, nullptr);
  const LintReport rep = lint_image(benign->image, config());
  EXPECT_TRUE(rep.clean()) << rep.format();
  // The near-miss exercises both sides of the boundary: one access
  // classified non-secure, one secure.
  bool saw_nonsecure = false, saw_secure = false;
  for (const auto& [pc, cls] : rep.access_class) {
    saw_nonsecure |= cls == AccessClass::kNonSecure;
    saw_secure |= cls == AccessClass::kSecure;
  }
  EXPECT_TRUE(saw_nonsecure);
  EXPECT_TRUE(saw_secure);
}

TEST(Corpus, AdaptsToDifferentRegionBounds) {
  // The corpus is parameterized: rebuild it against a different machine
  // shape and the verdicts must hold there too.
  const u64 base = 0x8800'0000, end = 0x9000'0000;
  LintConfig cfg;
  cfg.sr_base = base;
  cfg.sr_end = end;
  for (const CorpusEntry& e : violation_corpus(base, end)) {
    const LintReport rep = lint_image(e.image, cfg);
    if (e.expect_clean) {
      EXPECT_TRUE(rep.clean()) << e.name << "\n" << rep.format();
    } else {
      EXPECT_FALSE(rep.clean()) << e.name;
    }
  }
}

}  // namespace
}  // namespace ptstore::analysis
