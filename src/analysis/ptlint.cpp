#include "analysis/ptlint.h"

#include "analysis/dataflow.h"
#include "analysis/effects.h"
#include "isa/csr.h"

namespace ptstore::analysis {
namespace {

using isa::Inst;

/// Abstract machine state at one program point: one interval per register
/// plus the R3 must-flag ("a token-validation call dominates this point").
struct LintState {
  RegIntervals regs;
  bool validated = false;
  bool reached = false;

  /// Join: interval hull per register, AND on the must-flag.
  bool join_from(const LintState& o) {
    if (!o.reached) return false;
    if (!reached) {
      *this = o;
      return true;
    }
    bool changed = join_intervals(regs, o.regs);
    if (validated && !o.validated) {
      validated = false;
      changed = true;
    }
    return changed;
  }
};

void step(u64 pc, const Inst& in, LintState& st) { interval_step(pc, in, st.regs); }

AccessClass classify(const Domain& addr, const LintConfig& cfg) {
  if (addr.inside(cfg.sr_base, cfg.sr_end)) return AccessClass::kSecure;
  if (addr.outside(cfg.sr_base, cfg.sr_end)) return AccessClass::kNonSecure;
  return AccessClass::kUnknown;
}

class Linter {
 public:
  Linter(const Image& img, const LintConfig& cfg) : img_(img), cfg_(cfg) {}

  LintReport run() {
    cfg_graph_ = Cfg::build(img_, cfg_.extra_roots);
    report_.reachable = cfg_graph_.reachable_pcs();
    solve();
    for (const BasicBlock& bb : cfg_graph_.blocks()) report_block(bb);
    return std::move(report_);
  }

 private:
  bool call_target_validates(u64 target) const {
    const Symbol* sym = img_.symbol_at(target);
    if (sym == nullptr) return false;
    for (const std::string& name : cfg_.token_validate_symbols) {
      if (sym->name == name) return true;
    }
    return false;
  }

  /// Whole-image fixpoint. Call edges carry the caller's state into the
  /// callee; the call-return edge clobbers the caller-saved registers (any
  /// callee may write them) and sets the must-flag when the direct callee
  /// is a token-validation routine (an indirect call validates nothing).
  void solve() {
    LintState root;
    root.regs = entry_intervals();
    root.reached = true;
    if (cfg_graph_.block_at(img_.base) != nullptr) df_.seed(img_.base, root);
    for (const u64 r : cfg_.extra_roots) {
      if (cfg_graph_.block_at(r) != nullptr) df_.seed(r, root);
    }
    df_.solve(img_, cfg_graph_, step, [&](const BasicBlock& bb, const LintState& out) {
      for (const Edge& e : bb.succs) {
        if (e.kind != EdgeKind::kCallReturn) {
          df_.propagate(e.to, out);
          continue;
        }
        LintState next = out;
        clobber_caller_saved(next.regs);
        for (const Edge& c : bb.succs) {
          if (c.kind == EdgeKind::kCall && call_target_validates(c.to)) {
            next.validated = true;
          }
        }
        df_.propagate(e.to, next);
      }
    });
  }

  void report_block(const BasicBlock& bb) {
    const LintState* entry = df_.state_at(bb.start);
    if (entry == nullptr) return;

    if (bb.start < cfg_.sr_end && bb.end > cfg_.sr_base) {
      diag(DiagKind::kFetchFromSecure, Severity::kViolation,
           bb.start < cfg_.sr_base ? cfg_.sr_base : bb.start,
           "reachable code lies inside the secure region");
    }

    Dataflow<LintState>::interpret(img_, bb, *entry,
                                   [&](u64 pc, const Inst& in, LintState& st) {
                                     check_inst(pc, in, st);
                                     step(pc, in, st);
                                   });

    // Resolved control targets that leave the image: a note in general, a
    // violation when the target would fetch from the secure region.
    if (bb.leaves_image) {
      const u64 last = bb.end - 4;
      const Inst in = img_.inst_at(last);
      for (const Edge& e : terminator_edges(in, last)) {
        if (img_.contains(e.to)) continue;
        if (e.to >= cfg_.sr_base && e.to < cfg_.sr_end) {
          diag(DiagKind::kFetchFromSecure, Severity::kViolation, last,
               "control transfer targets the secure region");
        } else if (e.kind != EdgeKind::kCallReturn) {
          diag(DiagKind::kJumpOutOfImage, Severity::kNote, last,
               "control transfer leaves the analyzed image");
        }
      }
    }
  }

  void check_inst(u64 pc, const Inst& in, const LintState& st) {
    if (in.op == isa::Op::kIllegal) {
      diag(DiagKind::kIllegalInstruction, Severity::kNote, pc,
           "reachable word does not decode");
      return;
    }
    const Access acc = classify_access(in, st.regs);
    if (acc.any()) {
      const AccessClass cls = classify(acc.addr, cfg_);
      report_.access_class[pc] = cls;
      const std::string what =
          std::string(acc.store ? "store" : "load") + " address " +
          acc.addr.describe();
      if (acc.pt) {
        if (cls != AccessClass::kSecure) {
          diag(DiagKind::kPtInsnEscapes, Severity::kViolation, pc,
               "pt-access " + what + " is not provably inside the secure region");
        }
      } else if (cls == AccessClass::kSecure) {
        diag(DiagKind::kRegularTouchesSecure, Severity::kViolation, pc,
             "regular " + what + " targets the secure region");
      } else if (cls == AccessClass::kUnknown) {
        if (acc.addr.is_top()) {
          // Documented imprecision: an unconstrained address may point
          // anywhere. The dynamic cross-check covers these sites.
          diag(DiagKind::kRegularTouchesSecure, Severity::kNote, pc,
               "regular " + what + " is unconstrained (checked dynamically)");
        } else {
          diag(DiagKind::kRegularTouchesSecure, Severity::kViolation, pc,
               "regular " + what + " may overlap the secure region");
        }
      }
    }
    if (writes_csr(in)) {
      const u32 csr = csr_of(in);
      if (csr == isa::csr::kSatp && !st.validated) {
        diag(DiagKind::kSatpWriteUnvalidated, Severity::kViolation, pc,
             "satp write is not dominated by a token-validation call");
      }
      if (is_pmp_csr(csr)) {
        diag(DiagKind::kPmpScopeViolation, Severity::kViolation, pc,
             "guest code writes a PMP CSR owned by the M-mode monitor");
      }
    }
  }

  void diag(DiagKind kind, Severity sev, u64 pc, const std::string& message) {
    report_.diags.push_back(make_diag(img_, kind, sev, pc, message));
  }

  const Image& img_;
  const LintConfig& cfg_;
  Cfg cfg_graph_;
  Dataflow<LintState> df_;
  LintReport report_;
};

}  // namespace

const char* access_class_name(AccessClass c) {
  switch (c) {
    case AccessClass::kNonSecure: return "non-secure";
    case AccessClass::kSecure: return "secure";
    case AccessClass::kUnknown: return "unknown";
  }
  return "?";
}

const char* diag_kind_name(DiagKind k) {
  switch (k) {
    case DiagKind::kRegularTouchesSecure: return "regular-touches-secure";
    case DiagKind::kFetchFromSecure: return "fetch-from-secure";
    case DiagKind::kPtInsnEscapes: return "pt-insn-escapes";
    case DiagKind::kSatpWriteUnvalidated: return "satp-write-unvalidated";
    case DiagKind::kPmpScopeViolation: return "pmp-scope-violation";
    case DiagKind::kJumpOutOfImage: return "jump-out-of-image";
    case DiagKind::kIllegalInstruction: return "illegal-instruction";
  }
  return "?";
}

LintReport lint_image(const Image& img, const LintConfig& cfg) {
  return Linter(img, cfg).run();
}

}  // namespace ptstore::analysis
