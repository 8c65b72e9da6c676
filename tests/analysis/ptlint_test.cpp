// Rule-level tests for the static verifier: each PTStore invariant (R1–R4,
// ptlint.h) is exercised with a minimal offending image and its rule-abiding
// twin, plus the imprecision policy (Top addresses are notes, boundary-
// straddling intervals are violations).
#include <gtest/gtest.h>

#include <functional>

#include "analysis/ptlint.h"
#include "isa/assembler.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr u64 kBase = 0x8010'0000;
constexpr u64 kSrBase = 0x9C00'0000;
constexpr u64 kSrEnd = 0xA000'0000;

LintConfig config() {
  LintConfig cfg;
  cfg.sr_base = kSrBase;
  cfg.sr_end = kSrEnd;
  return cfg;
}

Image image_of(const std::function<void(Assembler&)>& build,
               std::vector<Symbol> symbols = {}) {
  Assembler a(kBase);
  build(a);
  Image img;
  img.base = kBase;
  img.words = a.finish();
  img.symbols = std::move(symbols);
  return img;
}

bool has_violation(const LintReport& rep, DiagKind kind) {
  for (const Diag* d : rep.violations()) {
    if (d->kind == kind) return true;
  }
  return false;
}

TEST(PtLint, RegularStoreInsideRegionViolates) {
  const Image img = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase + 0x100);
    a.sd(Reg::kZero, Reg::kT0, 0);
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  EXPECT_TRUE(has_violation(rep, DiagKind::kRegularTouchesSecure));
  EXPECT_EQ(rep.access_class.size(), 1u);
  EXPECT_EQ(rep.access_class.begin()->second, AccessClass::kSecure);
}

TEST(PtLint, RegularStoreOutsideRegionIsClean) {
  const Image img = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase - 8);
    a.sd(Reg::kZero, Reg::kT0, 0);
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  EXPECT_TRUE(rep.clean()) << rep.format();
  EXPECT_EQ(rep.access_class.begin()->second, AccessClass::kNonSecure);
}

TEST(PtLint, OffsetPushesAddressIntoRegion) {
  // Base register is outside; the store's immediate crosses the boundary.
  const Image img = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase - 8);
    a.sd(Reg::kZero, Reg::kT0, 8);
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  EXPECT_TRUE(has_violation(rep, DiagKind::kRegularTouchesSecure));
}

TEST(PtLint, BoundaryStraddlingIntervalViolates) {
  // t0 in [kSrBase - 0x80, kSrBase + 0x78]: may land on either side.
  const Image img = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase - 0x80);
    a.andi(Reg::kT1, Reg::kA0, 0xFF);
    a.add(Reg::kT0, Reg::kT0, Reg::kT1);
    a.ld(Reg::kA1, Reg::kT0, 0);
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  EXPECT_TRUE(has_violation(rep, DiagKind::kRegularTouchesSecure));
  ASSERT_EQ(rep.access_class.size(), 1u);
  EXPECT_EQ(rep.access_class.begin()->second, AccessClass::kUnknown)
      << rep.format();
}

TEST(PtLint, TopAddressIsNoteNotViolation) {
  const Image img = image_of([](Assembler& a) {
    a.ld(Reg::kT0, Reg::kA0, 0);   // a0 is unconstrained at entry
    a.sd(Reg::kZero, Reg::kT0, 0); // and so is the loaded value
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  EXPECT_EQ(rep.violation_count(), 0u) << rep.format();
  EXPECT_EQ(rep.diags.size(), 2u);  // two notes, one per access
  for (const auto& [pc, cls] : rep.access_class) {
    EXPECT_EQ(cls, AccessClass::kUnknown);
  }
}

TEST(PtLint, AlignedTopAddressIsStillANote) {
  // Known low bits (a scaled or masked unknown index) constrain no address:
  // the accesses stay notes, as for a plain Top address.
  const Image img = image_of([](Assembler& a) {
    a.ld(Reg::kT0, Reg::kA0, 0);
    a.slli(Reg::kT1, Reg::kT0, 3);
    a.sd(Reg::kZero, Reg::kT1, 8);
    a.andi(Reg::kT2, Reg::kT0, -16);
    a.ld(Reg::kT3, Reg::kT2, 0);
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  EXPECT_EQ(rep.violation_count(), 0u) << rep.format();
  EXPECT_EQ(rep.diags.size(), 3u) << rep.format();
}

TEST(PtLint, PtInsnInsideRegionIsCleanOutsideViolates) {
  const Image inside = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase + 0x40);
    a.ld_pt(Reg::kT1, Reg::kT0, 0);
    a.sd_pt(Reg::kZero, Reg::kT0, 8);
    a.ebreak();
  });
  EXPECT_TRUE(lint_image(inside, config()).clean());

  const Image outside = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase - 0x1000);
    a.sd_pt(Reg::kZero, Reg::kT0, 0);
    a.ebreak();
  });
  EXPECT_TRUE(has_violation(lint_image(outside, config()),
                            DiagKind::kPtInsnEscapes));

  // A pt-access with an unconstrained base is also a violation (strict).
  const Image top = image_of([](Assembler& a) {
    a.ld_pt(Reg::kT1, Reg::kA0, 0);
    a.ebreak();
  });
  EXPECT_TRUE(has_violation(lint_image(top, config()),
                            DiagKind::kPtInsnEscapes));
}

TEST(PtLint, SatpWriteRequiresValidationCall) {
  const auto body = [](Assembler& a, bool call_first) {
    auto validate = a.make_label();
    auto over = a.make_label();
    if (call_first) a.jal(Reg::kRa, validate);
    a.li(Reg::kT0, 1);
    a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT0);
    a.ebreak();
    a.j(over);  // unreachable padding keeps both images the same shape
    a.bind(validate);
    a.ret();
    a.bind(over);
    a.ebreak();
  };

  const Image unvalidated = image_of([&](Assembler& a) { body(a, false); });
  EXPECT_TRUE(has_violation(lint_image(unvalidated, config()),
                            DiagKind::kSatpWriteUnvalidated));

  // Same code, but the write is dominated by a call to token_validate.
  Assembler a(kBase);
  auto validate = a.make_label();
  a.jal(Reg::kRa, validate);
  a.li(Reg::kT0, 1);
  a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT0);
  a.ebreak();
  a.bind(validate);
  a.ret();
  const u64 validate_addr = *a.label_address(validate);
  Image validated;
  validated.base = kBase;
  validated.words = a.finish();
  validated.symbols = {{"token_validate", validate_addr}};
  const LintReport rep = lint_image(validated, config());
  EXPECT_FALSE(has_violation(rep, DiagKind::kSatpWriteUnvalidated))
      << rep.format();
}

TEST(PtLint, CallToOtherSymbolDoesNotValidate) {
  Assembler a(kBase);
  auto helper = a.make_label();
  a.jal(Reg::kRa, helper);
  a.li(Reg::kT0, 1);
  a.csrrw(Reg::kZero, isa::csr::kSatp, Reg::kT0);
  a.ebreak();
  a.bind(helper);
  a.ret();
  const u64 helper_addr = *a.label_address(helper);
  Image img;
  img.base = kBase;
  img.words = a.finish();
  img.symbols = {{"memcpy", helper_addr}};
  EXPECT_TRUE(has_violation(lint_image(img, config()),
                            DiagKind::kSatpWriteUnvalidated));
}

TEST(PtLint, PmpCsrWriteViolates) {
  const Image cfgw = image_of([](Assembler& a) {
    a.csrrw(Reg::kZero, isa::csr::kPmpcfg0, Reg::kT0);
    a.ebreak();
  });
  EXPECT_TRUE(has_violation(lint_image(cfgw, config()),
                            DiagKind::kPmpScopeViolation));

  // Reading PMP CSRs is allowed (csrrs with rs1 = x0 writes nothing).
  const Image read_only = image_of([](Assembler& a) {
    a.csrrs(Reg::kT0, isa::csr::kPmpaddr0 + 8, Reg::kZero);
    a.ebreak();
  });
  EXPECT_TRUE(lint_image(read_only, config()).clean());
}

TEST(PtLint, FetchFromSecureRegion) {
  // The image itself is loaded inside the secure region.
  Assembler a(kSrBase);
  a.nop();
  a.ebreak();
  Image img;
  img.base = kSrBase;
  img.words = a.finish();
  EXPECT_TRUE(has_violation(lint_image(img, config()),
                            DiagKind::kFetchFromSecure));
}

TEST(PtLint, CallerSavedClobberAfterCall) {
  // t0 holds a secure-region address before the call; after the call the
  // verifier must not assume it survived (t0 is caller-saved), so a regular
  // store through it degrades to a note (Top), not a definite violation —
  // while s2 (callee-saved) keeps its exact value across the call.
  Assembler a(kBase);
  auto fn = a.make_label();
  a.li(Reg::kT0, kSrBase);
  a.li(Reg::kS2, kSrBase);
  a.jal(Reg::kRa, fn);
  a.sd(Reg::kZero, Reg::kT0, 0);  // Top base: note
  a.sd(Reg::kZero, Reg::kS2, 0);  // still exactly kSrBase: violation
  a.ebreak();
  a.bind(fn);
  a.ret();
  Image img;
  img.base = kBase;
  img.words = a.finish();
  const LintReport rep = lint_image(img, config());
  EXPECT_EQ(rep.violation_count(), 1u) << rep.format();
  EXPECT_TRUE(has_violation(rep, DiagKind::kRegularTouchesSecure));
}

TEST(PtLint, LoopStateWidensSoundly) {
  // A loop walking a buffer strictly below the region must stay clean even
  // after widening kicks in (the widened base degrades to a note at worst —
  // here the loop is bounded, so the interval stays finite and outside).
  Assembler a(kBase);
  auto loop = a.make_label();
  a.li(Reg::kT0, kBase + 0x1000);
  a.li(Reg::kT1, 16);
  a.bind(loop);
  a.sd(Reg::kZero, Reg::kT0, 0);
  a.addi(Reg::kT0, Reg::kT0, 8);
  a.addi(Reg::kT1, Reg::kT1, -1);
  a.bnez(Reg::kT1, loop);
  a.ebreak();
  Image img;
  img.base = kBase;
  img.words = a.finish();
  const LintReport rep = lint_image(img, config());
  EXPECT_EQ(rep.violation_count(), 0u) << rep.format();
}

TEST(PtLint, UnboundedLoopWidensAfterJoinThreshold) {
  // t0 grows by 8 per iteration with a Top trip count: the loop-entry joins
  // keep changing, so after kWidenAfter joins the solver must widen t0 to
  // Top (guaranteeing termination) and the access through it becomes a
  // dynamic-check note. s2 never changes inside the loop, so widening must
  // NOT touch it — its in-region store stays a definite violation.
  Assembler a(kBase);
  auto loop = a.make_label();
  a.li(Reg::kT0, kBase + 0x1000);
  a.li(Reg::kS2, kSrBase);
  a.bind(loop);
  a.sd(Reg::kZero, Reg::kT0, 0);  // widened to Top: note
  a.sd(Reg::kZero, Reg::kS2, 0);  // loop-invariant secure target: violation
  a.addi(Reg::kT0, Reg::kT0, 8);
  a.bnez(Reg::kA0, loop);  // a0 unconstrained: unbounded trip count
  a.ebreak();
  Image img;
  img.base = kBase;
  img.words = a.finish();
  const LintReport rep = lint_image(img, config());
  EXPECT_EQ(rep.violation_count(), 1u) << rep.format();
  EXPECT_TRUE(has_violation(rep, DiagKind::kRegularTouchesSecure));
  size_t unknown = 0, secure = 0;
  for (const auto& [pc, cls] : rep.access_class) {
    unknown += cls == AccessClass::kUnknown ? 1 : 0;
    secure += cls == AccessClass::kSecure ? 1 : 0;
  }
  EXPECT_EQ(unknown, 1u) << rep.format();  // the widened pointer
  EXPECT_EQ(secure, 1u) << rep.format();   // the invariant one
}

TEST(PtLint, ClobberCoversWholeCallerSavedSet) {
  // Boundary registers of the caller-saved set: t6 (x31) and a7 (x17) must
  // be clobbered across a call-return edge; s11 (x27) is callee-saved and
  // must survive with its exact value.
  Assembler a(kBase);
  auto fn = a.make_label();
  a.li(Reg::kT6, kSrBase);
  a.li(Reg::kA7, kSrBase);
  a.li(Reg::kS11, kSrBase);
  a.jal(Reg::kRa, fn);
  a.sd(Reg::kZero, Reg::kT6, 0);   // Top: note
  a.sd(Reg::kZero, Reg::kA7, 0);   // Top: note
  a.sd(Reg::kZero, Reg::kS11, 0);  // still exactly kSrBase: violation
  a.ebreak();
  a.bind(fn);
  a.ret();
  Image img;
  img.base = kBase;
  img.words = a.finish();
  const LintReport rep = lint_image(img, config());
  EXPECT_EQ(rep.violation_count(), 1u) << rep.format();
  EXPECT_TRUE(has_violation(rep, DiagKind::kRegularTouchesSecure));
}

TEST(PtLint, ReportFormatMentionsRuleAndLocation) {
  const Image img = image_of([](Assembler& a) {
    a.li(Reg::kT0, kSrBase);
    a.sd(Reg::kZero, Reg::kT0, 0);
    a.ebreak();
  });
  const LintReport rep = lint_image(img, config());
  const std::string text = rep.format();
  EXPECT_NE(text.find("regular-touches-secure"), std::string::npos);
  EXPECT_NE(text.find("=>"), std::string::npos);
  EXPECT_NE(text.find("violation"), std::string::npos);
}

}  // namespace
}  // namespace ptstore::analysis
