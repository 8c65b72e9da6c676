// Whole-image call graph on top of CFG recovery.
//
// Functions are discovered from call targets: the image entry, any extra
// roots, every direct `jal ra` target, and every indirect `jalr` target the
// resolver — a whole-image run of the shared dataflow engine
// (analysis/dataflow.h) in the interval domain, seeded at every known
// entry — can pin to an exact address. Each function owns the blocks
// reachable from its entry along intra-procedural edges; a `j`/`jalr x0`
// whose resolved target is another function's entry is recorded as a tail
// call instead of being followed.
//
// Indirect calls whose target interval is not exact degrade to a sound
// over-approximation: the site is marked unresolved, the interprocedural
// analysis havocs caller-saved state across it, and a coverage note is
// emitted — never a crash, never a silently-dropped edge.
//
// Discovery iterates: resolving an indirect target can expose a new
// function, whose blocks may contain further calls, so the CFG is rebuilt
// with the grown root set until the entry set is stable. There is no round
// cap: the set only grows and is bounded by the image's words, so a chain
// of function pointers of any length is followed to its end.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/cfg.h"

namespace ptstore::analysis {

struct CallSite {
  u64 pc = 0;                ///< Address of the call/tail-transfer site.
  std::vector<u64> targets;  ///< Resolved callee entries (empty if none).
  bool resolved = false;     ///< False: indirect with a ⊤/imprecise target.
  bool tail = false;         ///< Transfer without a return continuation.
};

struct Function {
  u64 entry = 0;
  std::string name;          ///< Symbol at the entry, or "fn_0x...".
  std::vector<u64> blocks;   ///< Owned block start addresses, ascending.
  std::vector<CallSite> calls;
  bool has_unresolved_call = false;

  const CallSite* call_at(u64 pc) const;
};

class CallGraph {
 public:
  /// Build the call graph (and the CFG it rides on) for one image.
  static CallGraph build(const Image& img, const std::vector<u64>& extra_roots = {});

  const Cfg& cfg() const { return cfg_; }

  /// Functions in ascending entry order.
  const std::vector<Function>& functions() const { return fns_; }
  const Function* function_at(u64 entry) const;
  /// First function whose owned blocks cover `pc` (blocks shared between
  /// functions report the lowest-entry owner).
  const Function* function_containing(u64 pc) const;

  /// Entries in bottom-up order: callees before callers; members of one
  /// recursion SCC are adjacent (their summaries iterate to a fixpoint).
  const std::vector<u64>& bottom_up() const { return bottom_up_; }

  /// SCC id of a function entry (dense, arbitrary order); entries share an
  /// id exactly when they are mutually recursive.
  size_t scc_id(u64 entry) const;
  /// True when `entry` can (transitively) call itself.
  bool recursive(u64 entry) const;

 private:
  void compute_sccs();

  Cfg cfg_;
  std::vector<Function> fns_;
  std::map<u64, size_t> by_entry_;
  std::vector<u64> bottom_up_;
  std::map<u64, size_t> scc_;
  std::set<u64> recursive_;
};

}  // namespace ptstore::analysis
