#include "analysis/symexec/ptsym.h"

#include <algorithm>
#include <sstream>

#include "analysis/sarif.h"

namespace ptstore::analysis::symexec {

namespace {

using isa::Inst;
using isa::Op;

/// Where a "store outside the secure region" witness may land: DRAM below
/// the region first (directly backed during replay), then a window just
/// above it (above-region DRAM or, past the DRAM top, a replay-mapped
/// device page).
std::vector<std::pair<u64, u64>> outside_secure(u64 sr_base, u64 sr_end) {
  std::vector<std::pair<u64, u64>> out;
  if (sr_base > kDramBase) out.push_back({kDramBase, sr_base});
  out.push_back({sr_end, sr_end + MiB(256)});
  return out;
}

std::vector<u64> roots_for(const Image& img, const std::vector<u64>& extra) {
  std::vector<u64> roots;
  auto add = [&](u64 pc) {
    if (!img.contains(pc)) return;
    if (std::find(roots.begin(), roots.end(), pc) == roots.end())
      roots.push_back(pc);
  };
  add(img.base);
  for (u64 r : extra) add(r);
  for (const Symbol& s : img.symbols) add(s.address);
  return roots;
}

bool is_store_like(const Inst& in) {
  return in.is_store() || in.is_amo() || in.op == Op::kSdPt;
}

/// Run the goal from every root; a witness from any root wins, bounded
/// unreachability requires untruncated exhaustion from all of them.
SymVerdict refine(PathExplorer& explorer, const Goal& goal,
                  const std::vector<u64>& roots) {
  SymVerdict v;
  v.pc = goal.pc;
  v.rule_id = goal.rule_id;

  bool truncated = false;
  std::string reason;
  u32 paths = 0;
  u32 max_depth = 0;
  for (u64 root : roots) {
    ExploreResult r = explorer.explore(goal, root);
    paths += r.paths;
    max_depth = std::max(max_depth, r.max_depth);
    if (r.found) {
      v.verdict = Verdict::kWitnessed;
      v.witness = std::move(r.witness);
      v.paths_explored = paths;
      v.depth_bound = max_depth;
      std::ostringstream os;
      os << "witness path of " << v.witness->depth()
         << " instruction(s) from root 0x" << std::hex << root;
      v.detail = os.str();
      return v;
    }
    if (r.truncated) {
      truncated = true;
      if (reason.empty()) reason = r.truncation_reason;
    }
  }
  v.paths_explored = paths;
  v.depth_bound = max_depth;
  if (truncated) {
    v.verdict = Verdict::kUnknown;
    v.detail = reason;
  } else {
    v.verdict = Verdict::kBoundedUnreachable;
    std::ostringstream os;
    os << paths << " path(s) exhausted, deepest " << max_depth
       << " instruction(s)";
    v.detail = os.str();
  }
  return v;
}

}  // namespace

std::vector<SymVerdict> symexec_lint(const Image& img, const LintReport& rep,
                                     const LintConfig& cfg,
                                     const WitnessBudget& budget) {
  const Cfg graph = Cfg::build(img, cfg.extra_roots);
  PathExplorer explorer(img, graph, budget);
  explorer.set_lint_config(&cfg);
  const std::vector<u64> roots = roots_for(img, cfg.extra_roots);

  std::vector<SymVerdict> out;
  for (const Diag* d : rep.violations()) {
    Goal goal;
    goal.pc = d->pc;
    goal.rule_id = sarif_rule_id(d->kind);
    goal.kind_name = diag_kind_name(d->kind);
    const Inst in = img.inst_at(d->pc);

    switch (d->kind) {
      case DiagKind::kRegularTouchesSecure:
        goal.check = is_store_like(in) ? WitnessCheck::kStore
                                       : WitnessCheck::kLoad;
        goal.ea_in = {{cfg.sr_base, cfg.sr_end}};
        break;
      case DiagKind::kPtInsnEscapes:
        goal.check = in.op == Op::kSdPt ? WitnessCheck::kStore
                                        : WitnessCheck::kLoad;
        goal.ea_in = outside_secure(cfg.sr_base, cfg.sr_end);
        goal.allow_mem_derived_ea = true;
        break;
      case DiagKind::kSatpWriteUnvalidated:
        goal.check = WitnessCheck::kSatp;
        goal.flag = Goal::FlagReq::kValidatedFalse;
        break;
      case DiagKind::kPmpScopeViolation:
        goal.check = WitnessCheck::kPmpCsr;
        break;
      case DiagKind::kFetchFromSecure:
      case DiagKind::kJumpOutOfImage:
      case DiagKind::kIllegalInstruction:
        goal.check = WitnessCheck::kReach;
        break;
    }

    SymVerdict v = refine(explorer, goal, roots);
    v.kind_index = static_cast<unsigned>(d->kind);
    v.is_flow = false;
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<SymVerdict> symexec_flow(const Image& img, const FlowReport& rep,
                                     const FlowSpec& spec,
                                     const WitnessBudget& budget) {
  const Cfg graph = Cfg::build(img, spec.extra_roots);
  PathExplorer explorer(img, graph, budget);
  explorer.set_flow_spec(&spec);
  const std::vector<u64> roots = roots_for(img, spec.extra_roots);

  std::vector<SymVerdict> out;
  for (const FlowDiag* d : rep.violations()) {
    Goal goal;
    goal.pc = d->pc;
    goal.rule_id = sarif_rule_id(d->kind);
    goal.kind_name = flow_diag_kind_name(d->kind);

    switch (d->kind) {
      case FlowDiagKind::kSecretEscapes:
        goal.check = WitnessCheck::kStore;
        goal.ea_in = outside_secure(spec.sr_base, spec.sr_end);
        goal.value_taint_mask = kSecretBits;
        // The sanctioned home (e.g. the PCB credential field) sits outside
        // the secure region; exclude it concretely.
        goal.concrete_ok = [&spec](u64 ea, u64) {
          return !spec.sanctioned_dest(Domain::exact(ea));
        };
        break;
      case FlowDiagKind::kSecretToUser:
        goal.check = WitnessCheck::kStore;
        goal.ea_in = {{spec.user_base, spec.user_end}};
        goal.value_taint_mask = kSecretBits;
        break;
      case FlowDiagKind::kSecretToSink:
        goal.check = WitnessCheck::kCallArg;
        goal.arg_taint = true;
        break;
      case FlowDiagKind::kUnmediatedPtStore:
        goal.check = WitnessCheck::kStore;
        goal.ea_in = {{spec.pt_base, spec.pt_end}};
        goal.flag = Goal::FlagReq::kMediatedFalse;
        break;
      case FlowDiagKind::kCredAfterWalkable:
        goal.check = WitnessCheck::kSatp;
        goal.flag = Goal::FlagReq::kCredWrittenFalse;
        break;
      case FlowDiagKind::kUnresolvedCall:
      case FlowDiagKind::kUnconstrainedStore:
        // Notes are never violations; defensive fallthrough.
        goal.check = WitnessCheck::kReach;
        break;
    }

    SymVerdict v = refine(explorer, goal, roots);
    v.kind_index = static_cast<unsigned>(d->kind);
    v.is_flow = true;
    out.push_back(std::move(v));
  }
  return out;
}

}  // namespace ptstore::analysis::symexec
