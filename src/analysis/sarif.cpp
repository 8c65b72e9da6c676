#include "analysis/sarif.h"

#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "telemetry/json.h"

namespace ptstore::analysis {

namespace {

constexpr unsigned kNumLintKinds = 7;
constexpr unsigned kNumFlowKinds = 7;

template <typename Kind>
unsigned kind_index(Kind k) {
  return static_cast<unsigned>(k);
}

const char* rule_description(DiagKind k) {
  switch (k) {
    case DiagKind::kRegularTouchesSecure:
      return "A regular load/store/AMO may touch the PTStore secure region "
             "(R1: only ld.pt/sd.pt may access it).";
    case DiagKind::kFetchFromSecure:
      return "Reachable code lies inside the secure region (R1: the region "
             "holds data, never text).";
    case DiagKind::kPtInsnEscapes:
      return "An ld.pt/sd.pt access is not provably confined to the secure "
             "region (R2).";
    case DiagKind::kSatpWriteUnvalidated:
      return "satp is written on a path without a dominating token "
             "validation call (R3).";
    case DiagKind::kPmpScopeViolation:
      return "Guest code writes a PMP configuration CSR (R4: PMP is owned "
             "by the security monitor).";
    case DiagKind::kJumpOutOfImage:
      return "A resolved control-flow target leaves the analysed image.";
    case DiagKind::kIllegalInstruction:
      return "A reachable word does not decode to a valid instruction.";
  }
  return "?";
}

const char* rule_description(FlowDiagKind k) {
  switch (k) {
    case FlowDiagKind::kSecretEscapes:
      return "A backend secret flows into memory outside the secure region "
             "and outside its sanctioned home (T1).";
    case FlowDiagKind::kSecretToUser:
      return "A backend secret flows into U-mode-readable memory (T2).";
    case FlowDiagKind::kSecretToSink:
      return "A backend secret reaches a trace/telemetry sink call (T3).";
    case FlowDiagKind::kUnmediatedPtStore:
      return "A store that may alias a page-table page is not dominated by "
             "the backend's mediation entry point (M1).";
    case FlowDiagKind::kCredAfterWalkable:
      return "A bind path makes the root walkable before committing the "
             "credential (M2).";
    case FlowDiagKind::kUnresolvedCall:
      return "An indirect call target is not statically resolvable; its "
             "effects were over-approximated.";
    case FlowDiagKind::kUnconstrainedStore:
      return "A store address is unconstrained (Top); PT-page aliasing is "
             "deferred to dynamic checking.";
  }
  return "?";
}

/// One exportable finding, uniform across the two report types.
struct SarifResult {
  const char* rule_id;
  unsigned rule_index;
  bool violation;
  const std::string* message;
  u64 pc;
  /// ptsym refinement for this violation, when the caller ran one.
  const symexec::SymVerdict* verdict = nullptr;
};

/// Pair verdicts (parallel to rep.violations() order) with their diags.
template <typename Report>
std::map<const void*, const symexec::SymVerdict*> verdict_map(
    const Report& rep, const std::vector<symexec::SymVerdict>* verdicts) {
  std::map<const void*, const symexec::SymVerdict*> m;
  if (verdicts == nullptr) return m;
  const auto viol = rep.violations();
  for (size_t i = 0; i < viol.size() && i < verdicts->size(); ++i)
    m[viol[i]] = &(*verdicts)[i];
  return m;
}

struct SarifRule {
  const char* id;
  const char* name;
  const char* description;
};

std::string render(const char* driver_name, const std::vector<SarifRule>& rules,
                   const std::vector<SarifResult>& results,
                   const std::string& artifact_uri) {
  std::ostringstream os;
  telemetry::JsonWriter w(os);
  w.begin_object()
      .kv("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
      .kv("version", "2.1.0");
  w.key("runs").begin_array().begin_object();

  w.key("tool").begin_object().key("driver").begin_object();
  w.kv("name", driver_name).kv("version", "1.0.0");
  w.kv("informationUri", "docs/ANALYSIS.md");
  w.key("rules").begin_array();
  for (const SarifRule& r : rules) {
    w.begin_object().kv("id", r.id).kv("name", r.name);
    w.key("shortDescription")
        .begin_object()
        .kv("text", r.description)
        .end_object();
    w.end_object();
  }
  w.end_array();        // rules
  w.end_object();       // driver
  w.end_object();       // tool

  w.key("artifacts")
      .begin_array()
      .begin_object()
      .key("location")
      .begin_object()
      .kv("uri", artifact_uri)
      .end_object()
      .end_object()
      .end_array();

  // Dedup: one result per (ruleId, pc), keeping first-reported order.
  std::set<std::pair<const char*, u64>> seen;
  w.key("results").begin_array();
  for (const SarifResult& r : results) {
    if (!seen.insert({r.rule_id, r.pc}).second) continue;
    std::ostringstream pc;
    pc << "0x" << std::hex << r.pc;
    w.begin_object()
        .kv("ruleId", r.rule_id)
        .kv("ruleIndex", static_cast<u64>(r.rule_index))
        .kv("level", r.violation ? "error" : "note");
    w.key("message").begin_object().kv("text", *r.message).end_object();
    w.key("locations")
        .begin_array()
        .begin_object()
        .key("physicalLocation")
        .begin_object();
    w.key("artifactLocation").begin_object().kv("uri", artifact_uri).end_object();
    w.key("region").begin_object().kv("startLine", static_cast<u64>(1)).end_object();
    w.end_object();  // physicalLocation
    w.end_object().end_array();  // locations
    w.key("properties").begin_object().kv("pc", pc.str());
    if (r.verdict != nullptr) {
      w.kv("ptsymVerdict", symexec::verdict_name(r.verdict->verdict));
      w.kv("ptsymDetail", r.verdict->detail);
      w.kv("ptsymPaths", static_cast<u64>(r.verdict->paths_explored));
      w.kv("ptsymDepth", static_cast<u64>(r.verdict->depth_bound));
      if (r.verdict->witness)
        w.kv("ptsymWitnessSteps", r.verdict->witness->depth());
    }
    w.end_object();  // properties
    w.end_object();  // result
  }
  w.end_array();   // results
  w.end_object();  // run
  w.end_array();   // runs
  w.end_object();  // document
  return os.str();
}

/// One SARIF run for either report type: every kind as a rule, every
/// diagnostic (with its ptsym verdict, if any) as a result.
template <typename Kind>
std::string export_report(const char* driver, unsigned num_kinds,
                          const char* (*kind_name)(Kind),
                          const DiagReport<Kind>& rep,
                          const std::string& artifact_uri,
                          const std::vector<symexec::SymVerdict>* verdicts) {
  std::vector<SarifRule> rules;
  for (unsigned i = 0; i < num_kinds; ++i) {
    const auto k = static_cast<Kind>(i);
    rules.push_back({sarif_rule_id(k), kind_name(k), rule_description(k)});
  }
  const auto vmap = verdict_map(rep, verdicts);
  std::vector<SarifResult> results;
  for (const BasicDiag<Kind>& d : rep.diags) {
    const auto it = vmap.find(&d);
    results.push_back({sarif_rule_id(d.kind), kind_index(d.kind),
                       d.sev == Severity::kViolation, &d.message, d.pc,
                       it == vmap.end() ? nullptr : it->second});
  }
  return render(driver, rules, results, artifact_uri);
}

}  // namespace

const char* sarif_rule_id(DiagKind k) {
  static const char* kIds[kNumLintKinds] = {"PTL001", "PTL002", "PTL003",
                                            "PTL004", "PTL005", "PTL006",
                                            "PTL007"};
  const unsigned i = kind_index(k);
  return i < kNumLintKinds ? kIds[i] : "PTL000";
}

const char* sarif_rule_id(FlowDiagKind k) {
  static const char* kIds[kNumFlowKinds] = {"PTF101", "PTF102", "PTF103",
                                            "PTF104", "PTF105", "PTF106",
                                            "PTF107"};
  const unsigned i = kind_index(k);
  return i < kNumFlowKinds ? kIds[i] : "PTF100";
}

std::string to_sarif(const LintReport& rep, const std::string& artifact_uri,
                     const std::vector<symexec::SymVerdict>* verdicts) {
  return export_report("ptlint", kNumLintKinds, diag_kind_name, rep,
                       artifact_uri, verdicts);
}

std::string to_sarif(const FlowReport& rep, const std::string& artifact_uri,
                     const std::vector<symexec::SymVerdict>* verdicts) {
  return export_report("ptflow", kNumFlowKinds, flow_diag_kind_name, rep,
                       artifact_uri, verdicts);
}

}  // namespace ptstore::analysis
