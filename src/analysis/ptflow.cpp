#include "analysis/ptflow.h"

#include <sstream>

#include "analysis/dataflow.h"
#include "analysis/effects.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Inst;

/// Substitute a summary's symbolic argument bits with the caller's actual
/// taint at the call site.
TaintSet instantiate(TaintSet sum, const std::array<TaintSet, 32>& caller) {
  TaintSet out = sum & kTaintSecretMask;
  for (unsigned i = 0; i < 8; ++i) {
    if (sum & taint_arg(i)) out |= caller[10 + i];
  }
  return out;
}

/// Bottom-up summary of one function, computed against symbolic arguments.
struct FnSummary {
  TaintSet ret_taint[2] = {0, 0};  ///< a0/a1 at return.
  bool mediates = false;           ///< Every return path saw mediation.
  bool writes_cred = false;        ///< Every return path wrote the credential.
  bool is_mediation = false;       ///< The function IS a mediation entry.
  bool is_sink = false;            ///< The function IS a T3 sink.
  bool under_m2 = false;           ///< bind_root/rebind_root obligation.

  /// Accumulate: summaries only ever gain bits, so the SCC iteration over
  /// them is monotone over a finite lattice and converges.
  bool join_effects(const FnSummary& o) {
    bool changed = false;
    for (int i = 0; i < 2; ++i) {
      const TaintSet t = static_cast<TaintSet>(ret_taint[i] | o.ret_taint[i]);
      if (t != ret_taint[i]) {
        ret_taint[i] = t;
        changed = true;
      }
    }
    if (o.mediates && !mediates) {
      mediates = true;
      changed = true;
    }
    if (o.writes_cred && !writes_cred) {
      writes_cred = true;
      changed = true;
    }
    return changed;
  }
};

/// Exit-state accumulator for one function analysis: AND over must-flags,
/// OR over return taints, across every return/tail-call path.
struct ExitAcc {
  bool any = false;
  bool mediated = true;
  bool cred_written = true;
  TaintSet ret[2] = {0, 0};

  void add(bool med, bool cred, TaintSet a0, TaintSet a1) {
    any = true;
    mediated = mediated && med;
    cred_written = cred_written && cred;
    ret[0] = static_cast<TaintSet>(ret[0] | a0);
    ret[1] = static_cast<TaintSet>(ret[1] | a1);
  }
};

class FlowVerifier {
 public:
  FlowVerifier(const Image& img, const FlowSpec& spec) : img_(img), spec_(spec) {}

  FlowReport run() {
    cg_ = CallGraph::build(img_, spec_.extra_roots);
    report_.function_count = cg_.functions().size();
    for (const Function& fn : cg_.functions()) {
      report_.callsite_count += fn.calls.size();
      summaries_[fn.entry] = seed_summary(fn);
    }
    compute_summaries();
    solve_contexts();
    check();
    return std::move(report_);
  }

 private:
  FnSummary seed_summary(const Function& fn) const {
    FnSummary s;
    s.is_mediation = name_in(fn.name, spec_.mediation_symbols);
    s.is_sink = name_in(fn.name, spec_.sink_symbols);
    s.under_m2 = name_in(fn.name, spec_.bind_symbols);
    return s;
  }

  static bool name_in(const std::string& name, const std::vector<std::string>& list) {
    for (const std::string& s : list) {
      if (s == name) return true;
    }
    return false;
  }

  /// One engine run over `fn`'s owned blocks from `entry_state`. In check
  /// mode, once the fixpoint has converged, each reached block is walked
  /// once more from its fixpoint entry state (in first-visit order) and
  /// that walk alone emits diags, so every store is judged once, on the
  /// converged state. Calling contexts of callees are recorded in `ctx_out`
  /// when non-null. Returns the function's exit accumulator.
  ExitAcc analyze(const Function& fn, const FlowState& entry_state,
                  bool check_mode, std::map<u64, FlowState>* ctx_out) {
    const std::set<u64> owned(fn.blocks.begin(), fn.blocks.end());
    const FnSummary& self = summaries_[fn.entry];
    ExitAcc exits;
    Dataflow<FlowState> df;
    FlowState seed = entry_state;
    if (self.is_mediation) seed.mediated = true;
    df.seed(fn.entry, seed);
    bool judging = false;  // The post-fixpoint check walk is running.
    std::set<u64> visited;
    std::vector<u64> visit_order;

    const auto step = [&](u64 pc, const Inst& in, FlowState& st) {
      const Access acc = classify_access(in, st.regs);
      if (acc.store) {
        if (judging) check_store(pc, acc, st);
        // M2 bookkeeping: a store provably confined to the credential home
        // commits the credential.
        if (spec_.cred_end > spec_.cred_base &&
            acc.addr.inside(spec_.cred_base, spec_.cred_end)) {
          st.cred_written = true;
        }
      }
      if (judging && spec_.m2 && self.under_m2 && !st.cred_written &&
          writes_csr(in) && csr_of(in) == isa::csr::kSatp) {
        diag(FlowDiagKind::kCredAfterWalkable, Severity::kViolation, pc,
             "root becomes walkable before the credential is written "
             "(bind path writes satp first)");
      }
      st.step(pc, in);
      // Re-taint a loaded value from the spec's secret sources.
      if (acc.load && in.rd != 0) st.taint[in.rd] = spec_.secret_taint(acc.addr);
    };
    const auto propagate = [&](u64 to, const FlowState& st) {
      if (!judging && owned.count(to) != 0) df.propagate(to, st);
    };
    const auto edges = [&](const BasicBlock& bb, const FlowState& out) {
      const u64 term_pc = bb.end - 4;
      if (const CallSite* cs = fn.call_at(term_pc)) {
        call_edge(bb, *cs, out, judging, ctx_out, exits, propagate);
      } else if (is_return(img_.inst_at(term_pc))) {
        exits.add(out.mediated, out.cred_written, out.taint[10], out.taint[11]);
      } else {
        for (const Edge& e : bb.succs) propagate(e.to, out);
      }
    };
    df.solve(img_, cg_.cfg(), step, [&](const BasicBlock& bb, const FlowState& out) {
      if (check_mode && visited.insert(bb.start).second) visit_order.push_back(bb.start);
      edges(bb, out);
    });
    if (check_mode) {
      judging = true;
      for (const u64 at : visit_order) {
        const FlowState* entry = df.state_at(at);
        if (entry == nullptr) continue;
        const BasicBlock& bb = *cg_.cfg().block_at(at);
        edges(bb, Dataflow<FlowState>::interpret(img_, bb, *entry, step));
      }
    }
    return exits;
  }

  /// The edge hook at a call site: T3 sink arguments, calling contexts,
  /// then the callee summaries applied either as this function's exit (tail
  /// call) or along the call-return edge.
  template <typename Propagate>
  void call_edge(const BasicBlock& bb, const CallSite& cs,
                 const FlowState& at_call, bool check_mode,
                 std::map<u64, FlowState>* ctx_out, ExitAcc& exits,
                 Propagate&& propagate) {
    // T3: a secret reaching a sink's argument registers (a0..a2).
    if (check_mode && spec_.t3) {
      for (const u64 t : cs.targets) {
        auto it = summaries_.find(t);
        if (it == summaries_.end() || !it->second.is_sink) continue;
        const TaintSet args = static_cast<TaintSet>(
            (at_call.taint[10] | at_call.taint[11] | at_call.taint[12]) &
            kTaintSecretMask);
        if (args != 0) {
          diag(FlowDiagKind::kSecretToSink, Severity::kViolation, cs.pc,
               "secret " + describe_taint(args) +
                   " reaches trace/telemetry sink '" + callee_name(t) + "'");
        }
      }
    }

    if (ctx_out != nullptr) {
      for (const u64 t : cs.targets) (*ctx_out)[t].join_from(at_call);
    }

    // Summary effects of the callee set: must-flags AND over all possible
    // targets, return taint OR.
    bool callee_mediates = cs.resolved && !cs.targets.empty();
    bool callee_writes_cred = callee_mediates;
    TaintSet ret0 = 0, ret1 = 0;
    for (const u64 t : cs.targets) {
      const FnSummary& sum = summaries_[t];
      callee_mediates = callee_mediates && (sum.mediates || sum.is_mediation);
      callee_writes_cred = callee_writes_cred && sum.writes_cred;
      ret0 |= instantiate(sum.ret_taint[0], at_call.taint);
      ret1 |= instantiate(sum.ret_taint[1], at_call.taint);
    }
    if (!cs.resolved && check_mode) {
      diag(FlowDiagKind::kUnresolvedCall, Severity::kNote, cs.pc,
           "indirect call target is not statically resolvable; callee "
           "effects over-approximated (havoc)");
      ++report_.unresolved_calls;
    }

    if (cs.tail) {
      // The callee's returns are this function's returns. Must-facts that
      // held at the transfer survive; the callee may add its own.
      exits.add(at_call.mediated || callee_mediates,
                at_call.cred_written || callee_writes_cred, ret0, ret1);
      return;
    }

    FlowState next = at_call;
    next.clobber_caller_saved();
    next.taint[10] = ret0;
    next.taint[11] = ret1;
    if (callee_mediates) next.mediated = true;
    if (callee_writes_cred) next.cred_written = true;
    for (const Edge& e : bb.succs) {
      if (e.kind == EdgeKind::kCallReturn) propagate(e.to, next);
    }
  }

  // ---- rule checks ----

  void check_store(u64 pc, const Access& acc, const FlowState& st) {
    const TaintSet secret =
        static_cast<TaintSet>(st.taint[acc.value_reg] & kTaintSecretMask);
    if (secret != 0) {
      if (spec_.t2 && acc.addr.may_overlap(spec_.user_base, spec_.user_end)) {
        diag(FlowDiagKind::kSecretToUser, Severity::kViolation, pc,
             "secret " + describe_taint(secret) +
                 " stored to U-mode-readable memory, address " +
                 acc.addr.describe());
        return;
      }
      if (spec_.t1 && !acc.addr.inside(spec_.sr_base, spec_.sr_end) &&
          !spec_.sanctioned_dest(acc.addr)) {
        diag(FlowDiagKind::kSecretEscapes, Severity::kViolation, pc,
             "secret " + describe_taint(secret) +
                 " escapes the secure region, address " + acc.addr.describe());
        return;
      }
    }
    if (spec_.m1 && acc.addr.may_overlap(spec_.pt_base, spec_.pt_end)) {
      const bool mediated =
          st.mediated || (acc.pt && spec_.pt_insn_mediates);
      if (!mediated) {
        if (acc.addr.is_top()) {
          diag(FlowDiagKind::kUnconstrainedStore, Severity::kNote, pc,
               "store address is unconstrained; PT-page aliasing checked "
               "dynamically");
        } else {
          diag(FlowDiagKind::kUnmediatedPtStore, Severity::kViolation, pc,
               "store may alias a page-table page (address " +
                   acc.addr.describe() +
                   ") without a dominating mediation call");
        }
      }
    }
  }

  // ---- phase drivers ----

  void compute_summaries() {
    // bottom_up() keeps SCC members adjacent: iterate each group until its
    // summaries stop changing. join_effects only adds bits, so this
    // converges without a round cap.
    const std::vector<u64>& order = cg_.bottom_up();
    size_t i = 0;
    while (i < order.size()) {
      size_t j = i;
      const size_t scc = cg_.scc_id(order[i]);
      while (j < order.size() && cg_.scc_id(order[j]) == scc) ++j;
      for (bool changed = true; changed;) {
        changed = false;
        for (size_t k = i; k < j; ++k) {
          const Function* fn = cg_.function_at(order[k]);
          if (fn == nullptr) continue;
          const ExitAcc exits =
              analyze(*fn, FlowState::entry(/*symbolic_args=*/true),
                      /*check_mode=*/false, nullptr);
          FnSummary next;
          if (exits.any) {
            next.ret_taint[0] = exits.ret[0];
            next.ret_taint[1] = exits.ret[1];
            next.mediates = exits.mediated;
            next.writes_cred = exits.cred_written;
          }
          changed = summaries_[fn->entry].join_effects(next) || changed;
        }
      }
      i = j;
    }
  }

  /// Calling contexts: the engine over function entries, each visit one
  /// analyze() of the function whose call-site states join (and widen) into
  /// its callees' contexts.
  void solve_contexts() {
    const auto seed = [&](u64 e) {
      if (cg_.function_at(e) != nullptr) {
        ctx_.seed(e, FlowState::entry(/*symbolic_args=*/false));
      }
    };
    seed(img_.base);
    for (const u64 r : spec_.extra_roots) seed(r);

    ctx_.solve([&](u64 at, const FlowState& ctx) {
      const Function* fn = cg_.function_at(at);
      if (fn == nullptr) return;
      std::map<u64, FlowState> calls;
      analyze(*fn, ctx, /*check_mode=*/false, &calls);
      for (const auto& [callee, st] : calls) ctx_.propagate(callee, st);
    });
  }

  void check() {
    for (const Function& fn : cg_.functions()) {
      const FlowState* ctx = ctx_.state_at(fn.entry);
      if (ctx != nullptr) analyze(fn, *ctx, /*check_mode=*/true, nullptr);
    }
  }

  std::string callee_name(u64 entry) const {
    const Function* fn = cg_.function_at(entry);
    return fn != nullptr ? fn->name : "?";
  }

  void diag(FlowDiagKind kind, Severity sev, u64 pc, const std::string& message) {
    if (!seen_.insert({static_cast<u8>(kind), pc}).second) return;
    report_.diags.push_back(make_diag(img_, kind, sev, pc, message));
  }

  const Image& img_;
  const FlowSpec& spec_;
  CallGraph cg_;
  std::map<u64, FnSummary> summaries_;
  Dataflow<FlowState> ctx_;
  std::set<std::pair<u8, u64>> seen_;
  FlowReport report_;
};

}  // namespace

FlowSpec FlowSpec::for_backend(BackendKind k, u64 sr_base, u64 sr_end) {
  const FlowAnnotation& ann = flow_annotation(k);
  FlowSpec s;
  s.backend = ann.kind;
  s.sr_base = sr_base;
  s.sr_end = sr_end;
  // The PT-page pool: the paper places page tables in the secure region;
  // DPTI's domain and PTAuth's signed pool model the same address range.
  s.pt_base = sr_base;
  s.pt_end = sr_end;
  s.user_base = kUserSpaceBase;
  s.user_end = kUserSpaceBase + GiB(1);

  // Image geometry shared with the corpus builders: the token table and
  // domain registry live inside the secure region, the MAC key in monitor
  // memory at the region base, and PCBs one MiB below the region.
  const u64 token = sr_base + 0x800;
  const u64 domain = sr_base + 0x1000;
  const u64 mac = sr_base + 0x600;
  const u64 pcb = sr_base - MiB(1);
  for (const SecretClass c : ann.secrets) {
    switch (c) {
      case SecretClass::kToken:
        s.secrets.push_back({token, token + 0x100, kTaintToken, "token table"});
        break;
      case SecretClass::kMacKey:
        s.secrets.push_back({mac, mac + 0x40, kTaintMacKey, "MAC key"});
        break;
      case SecretClass::kCredential:
        s.secrets.push_back(
            {pcb, pcb + 0x1000, kTaintCredential, "PCB credential field"});
        break;
      case SecretClass::kDomainRoot:
        s.secrets.push_back(
            {domain, domain + 0x100, kTaintDomainRoot, "domain registry"});
        break;
    }
  }
  switch (ann.kind) {
    case BackendKind::kPtstore:
      s.cred_base = token;
      s.cred_end = token + 0x100;
      break;
    case BackendKind::kDpti:
      s.cred_base = domain;
      s.cred_end = domain + 0x100;
      break;
    case BackendKind::kPtauth:
      s.cred_base = pcb;
      s.cred_end = pcb + 0x1000;
      break;
    default:
      break;
  }
  for (const char* sym : ann.mediation_symbols) s.mediation_symbols.push_back(sym);
  for (const char* sym : ann.bind_symbols) s.bind_symbols.push_back(sym);
  for (const char* sym : ann.sink_symbols) s.sink_symbols.push_back(sym);
  s.t1 = s.t2 = s.t3 = ann.taint_rules;
  s.m1 = ann.mediation_rule;
  s.m2 = ann.bind_order_rule;
  s.pt_insn_mediates = ann.pt_insn_mediates;
  return s;
}

TaintSet FlowSpec::secret_taint(const Domain& addr) const {
  TaintSet t = 0;
  for (const SecretRange& r : secrets) {
    // ⊤ addresses are *not* tainted: an unconstrained pointer may read
    // anything, and tainting it would mark every spilled reload secret.
    // The note-level store diagnostics keep those sites visible instead.
    if (addr.is_top()) continue;
    if (addr.may_overlap(r.base, r.end)) t |= r.cls;
  }
  return t;
}

bool FlowSpec::sanctioned_dest(const Domain& addr) const {
  if (cred_end > cred_base && addr.inside(cred_base, cred_end)) return true;
  for (const SecretRange& r : secrets) {
    if (addr.inside(r.base, r.end)) return true;
  }
  return false;
}

const char* flow_diag_kind_name(FlowDiagKind k) {
  switch (k) {
    case FlowDiagKind::kSecretEscapes: return "secret-escapes";
    case FlowDiagKind::kSecretToUser: return "secret-to-user";
    case FlowDiagKind::kSecretToSink: return "secret-to-sink";
    case FlowDiagKind::kUnmediatedPtStore: return "unmediated-pt-store";
    case FlowDiagKind::kCredAfterWalkable: return "cred-after-walkable";
    case FlowDiagKind::kUnresolvedCall: return "unresolved-call";
    case FlowDiagKind::kUnconstrainedStore: return "unconstrained-store";
  }
  return "?";
}

std::string FlowReport::format() const {
  std::ostringstream os;
  os << format_diags() << ", " << function_count << " function(s), "
     << callsite_count << " call site(s)\n";
  return os.str();
}

FlowReport flow_verify(const Image& img, const FlowSpec& spec) {
  return FlowVerifier(img, spec).run();
}

}  // namespace ptstore::analysis
