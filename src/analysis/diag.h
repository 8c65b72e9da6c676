// Diagnostics shared by ptlint and ptflow: one diagnostic shape, one report
// base (violation filtering and the text format), and one builder for the
// "location: message" text and its disassembly context.
#pragma once

#include <string>
#include <vector>

#include "analysis/image.h"

namespace ptstore::analysis {

enum class Severity : u8 { kViolation, kNote };

/// One finding of kind `Kind` (ptlint's DiagKind or ptflow's FlowDiagKind).
template <typename Kind>
struct BasicDiag {
  Kind kind{};
  Severity sev = Severity::kViolation;
  u64 pc = 0;
  std::string message;
  /// Disassembly context: the offending instruction plus neighbours,
  /// " => 0x80100008  sd zero, 0(t0)" style.
  std::vector<std::string> context;
};

/// The offending instruction at `pc` with up to two neighbours either side,
/// the offender marked " => ".
std::vector<std::string> disasm_context(const Image& img, u64 pc);

/// A diagnostic at `pc`: message prefixed with Image::locate, plus context.
template <typename Kind>
BasicDiag<Kind> make_diag(const Image& img, Kind kind, Severity sev, u64 pc,
                          const std::string& message) {
  return {kind, sev, pc, img.locate(pc) + ": " + message, disasm_context(img, pc)};
}

/// Diagnostics in report order, with the helpers both verifiers expose.
template <typename Kind>
struct DiagReport {
  std::vector<BasicDiag<Kind>> diags;

  size_t violation_count() const;
  bool clean() const { return violation_count() == 0; }
  std::vector<const BasicDiag<Kind>*> violations() const;

 protected:
  /// Every diagnostic with its context, then "N diagnostic(s), V
  /// violation(s)" without a trailing newline (the clients append theirs).
  std::string format_diags() const;
};

}  // namespace ptstore::analysis
