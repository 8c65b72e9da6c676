#include "analysis/diag.h"

#include <sstream>

#include "analysis/ptflow.h"
#include "analysis/ptlint.h"

namespace ptstore::analysis {
namespace {

const char* kind_name(DiagKind k) { return diag_kind_name(k); }
const char* kind_name(FlowDiagKind k) { return flow_diag_kind_name(k); }

}  // namespace

std::vector<std::string> disasm_context(const Image& img, u64 pc) {
  std::vector<std::string> lines;
  const u64 lo = (pc >= img.base + 8) ? pc - 8 : img.base;
  const u64 hi = (pc + 12 <= img.end()) ? pc + 12 : img.end();
  for (u64 p = lo; p < hi; p += 4) {
    if (!img.contains(p)) continue;
    std::ostringstream os;
    os << (p == pc ? " => " : "    ") << "0x" << std::hex << p << "  "
       << isa::disassemble(img.inst_at(p));
    lines.push_back(os.str());
  }
  return lines;
}

template <typename Kind>
size_t DiagReport<Kind>::violation_count() const {
  size_t n = 0;
  for (const BasicDiag<Kind>& d : diags) n += d.sev == Severity::kViolation ? 1 : 0;
  return n;
}

template <typename Kind>
std::vector<const BasicDiag<Kind>*> DiagReport<Kind>::violations() const {
  std::vector<const BasicDiag<Kind>*> out;
  for (const BasicDiag<Kind>& d : diags) {
    if (d.sev == Severity::kViolation) out.push_back(&d);
  }
  return out;
}

template <typename Kind>
std::string DiagReport<Kind>::format_diags() const {
  std::ostringstream os;
  for (const BasicDiag<Kind>& d : diags) {
    os << (d.sev == Severity::kViolation ? "violation" : "note") << " ["
       << kind_name(d.kind) << "] at 0x" << std::hex << d.pc << std::dec
       << ": " << d.message << "\n";
    for (const std::string& line : d.context) os << line << "\n";
  }
  os << diags.size() << " diagnostic(s), " << violation_count()
     << " violation(s)";
  return os.str();
}

template struct DiagReport<DiagKind>;
template struct DiagReport<FlowDiagKind>;

}  // namespace ptstore::analysis
