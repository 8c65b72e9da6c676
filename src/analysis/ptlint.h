// ptlint: static verifier for PTStore's isolation invariants over guest
// machine code. One whole-image run of the shared forward-dataflow engine
// (analysis/dataflow.h) over the recovered CFG, in the interval domain
// (analysis/absval.h) × R3's must-validated flag, following call edges into
// callees; it classifies every memory access against the secure region and
// checks the paper's software-side rules:
//
//   R1  Regular loads/stores/AMOs and instruction fetch must never target
//       the secure region — only ld.pt/sd.pt may (paper §III-C1).
//   R2  ld.pt/sd.pt effective addresses must stay provably inside the
//       secure region (a pt-access that can escape leaks the only
//       privileged window the design grants).
//   R3  Every satp write must be dominated by a call to a token-validation
//       routine (§III-C3) — modelled as a must-analysis flag set on return
//       from a symbol named in LintConfig::token_validate_symbols.
//   R4  Guest kernel code never programs PMP: pmpcfg/pmpaddr are owned by
//       the M-mode monitor (§IV-B); any write is a mis-scoped PMP access.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/diag.h"

namespace ptstore::analysis {

struct LintConfig {
  u64 sr_base = 0;
  u64 sr_end = 0;
  /// Symbols whose return marks the abstract state "token-validated" (R3).
  std::vector<std::string> token_validate_symbols = {"token_validate",
                                                     "validate_token"};
  /// Additional analysis roots (e.g. trap vectors) beyond the image base.
  std::vector<u64> extra_roots;
};

enum class AccessClass : u8 {
  kNonSecure,  ///< Provably outside the secure region.
  kSecure,     ///< Provably inside.
  kUnknown,    ///< The interval overlaps the boundary or is Top.
};

const char* access_class_name(AccessClass c);

enum class DiagKind : u8 {
  kRegularTouchesSecure,  ///< R1: ld/sd/amo may hit the secure region.
  kFetchFromSecure,       ///< R1: reachable code inside the secure region.
  kPtInsnEscapes,         ///< R2: ld.pt/sd.pt not provably inside.
  kSatpWriteUnvalidated,  ///< R3: satp write without token validation.
  kPmpScopeViolation,     ///< R4: guest code writes a PMP CSR.
  kJumpOutOfImage,        ///< Resolved control target outside the image.
  kIllegalInstruction,    ///< Reachable undecodable word.
};

const char* diag_kind_name(DiagKind k);

using Diag = BasicDiag<DiagKind>;

struct LintReport : DiagReport<DiagKind> {
  /// Static classification of every reachable memory access, by pc. The
  /// trace cross-check replays dynamic effective addresses against this.
  std::map<u64, AccessClass> access_class;
  std::set<u64> reachable;

  std::string format() const { return format_diags() + "\n"; }
};

/// Run the verifier over one image.
LintReport lint_image(const Image& img, const LintConfig& cfg);

}  // namespace ptstore::analysis
