// ptflow: interprocedural taint & mediation-completeness verifier.
//
// ptlint proves the R1–R4 *layout* invariants one procedure at a time;
// ptflow proves the two properties the isolation backends' security
// argument actually rests on, across the whole image:
//
//   T1  No secret (token, MAC key, credential, domain root) flows into
//       memory outside the secure region — except into its own sanctioned
//       home (the credential field it is defined to live in).
//   T2  No secret flows into U-mode-readable memory.
//   T3  No secret reaches a trace/telemetry sink call.
//   M1  Every store whose target interval may alias a page-table page is
//       dominated by a call into the backend's mediation entry point (or
//       is an sd.pt, where the pt-insns are the mediation mechanism).
//   M2  On every bind_root/rebind_root path, the credential is written
//       before the root becomes walkable (the satp write).
//
// Machinery: call-graph construction (analysis/callgraph.h), bottom-up
// function summaries over the taint lattice (analysis/taint.h) computed
// against symbolic arguments and iterated per recursion SCC until they stop
// changing, then a top-down context pass and a reporting pass that analyze
// each function in the join of its calling contexts. Every per-function
// analysis and the context pass are runs of the shared engine
// (analysis/dataflow.h): FlowState over the function's owned blocks, with
// an edge hook that applies callee summaries at call sites and collects
// exit states at returns. No pass has a round cap. Which rules apply,
// which values are secret, and which symbols mediate comes from the
// per-backend declarative sheet in kernel/isolation.h (FlowAnnotation);
// FlowSpec adds the concrete address geometry.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/callgraph.h"
#include "analysis/diag.h"
#include "analysis/taint.h"
#include "kernel/isolation.h"

namespace ptstore::analysis {

/// One taint source or sanctioned secret home: [base, end) carries `cls`.
struct SecretRange {
  u64 base = 0;
  u64 end = 0;
  TaintSet cls = 0;
  const char* what = "";
};

/// Per-backend rule selection + address geometry for one analyzed image.
struct FlowSpec {
  BackendKind backend = BackendKind::kStock;

  u64 sr_base = 0, sr_end = 0;      ///< Secure/protected region (T1 allows).
  u64 pt_base = 0, pt_end = 0;      ///< PT-page pool (M1 alias range).
  u64 cred_base = 0, cred_end = 0;  ///< Credential home (M2 target).
  u64 user_base = 0, user_end = 0;  ///< U-mode-readable window (T2).

  std::vector<SecretRange> secrets;
  std::vector<std::string> mediation_symbols;
  std::vector<std::string> bind_symbols;
  std::vector<std::string> sink_symbols;

  bool t1 = false, t2 = false, t3 = false, m1 = false, m2 = false;
  bool pt_insn_mediates = false;

  std::vector<u64> extra_roots;

  /// Resolve the kernel-declared FlowAnnotation for `k` against the default
  /// image geometry used by the corpus and the reference kernels: secrets
  /// and the credential home at fixed offsets from the secure region, the
  /// U-mode window at kUserSpaceBase.
  static FlowSpec for_backend(BackendKind k, u64 sr_base, u64 sr_end);

  /// Taint classes of a load from `addr` (union over overlapping sources).
  TaintSet secret_taint(const Domain& addr) const;
  /// True when `addr` is provably confined to a sanctioned secret home
  /// (the credential range or any declared source range).
  bool sanctioned_dest(const Domain& addr) const;
};

enum class FlowDiagKind : u8 {
  kSecretEscapes,      ///< T1: secret stored outside the secure region.
  kSecretToUser,       ///< T2: secret stored to a U-mode-readable page.
  kSecretToSink,       ///< T3: secret passed to a trace/telemetry sink.
  kUnmediatedPtStore,  ///< M1: PT-page store without mediation.
  kCredAfterWalkable,  ///< M2: satp written before the credential.
  kUnresolvedCall,     ///< Note: indirect call degraded to havoc.
  kUnconstrainedStore, ///< Note: ⊤-addressed store (dynamic coverage).
};

const char* flow_diag_kind_name(FlowDiagKind k);

using FlowDiag = BasicDiag<FlowDiagKind>;

struct FlowReport : DiagReport<FlowDiagKind> {
  size_t function_count = 0;
  size_t callsite_count = 0;
  size_t unresolved_calls = 0;

  std::string format() const;
};

/// Run the interprocedural verifier over one image.
FlowReport flow_verify(const Image& img, const FlowSpec& spec);

}  // namespace ptstore::analysis
