// The one forward-dataflow engine behind every static pass in src/analysis:
// ptlint's whole-image interval × must-validated analysis, the call-graph
// resolver's interval pass, ptflow's per-function taint analysis and its
// context pass over function entries. Clients supply a State and hooks; the
// engine owns the worklist and the join-plus-widen rule.
//
// A State provides `RegIntervals regs`, `bool reached` and
// `bool join_from(const State&)` (lattice join; true when it changed).
//
// Every fixpoint runs to convergence, with no round cap: both lattices are
// finite once widened (an interval register that keeps changing goes to Top
// after kWidenAfter changing joins; every other component is a finite bit
// or flag set joined monotonically), so each node's state can only change
// a bounded number of times.
#pragma once

#include <deque>
#include <map>

#include "analysis/absval.h"
#include "analysis/cfg.h"

namespace ptstore::analysis {

/// Changing joins one node absorbs before the registers that still change
/// are widened straight to Top.
inline constexpr int kWidenAfter = 4;

template <typename State>
class Dataflow {
 public:
  /// Join `st` into `node`'s entry state without counting towards widening
  /// (analysis roots); queue the node when that changed anything.
  void seed(u64 node, const State& st) {
    if (slots_[node].state.join_from(st)) work_.push_back(node);
  }

  /// The join-plus-widen rule: join `st` into `node`'s entry state, and once
  /// the node has absorbed more than kWidenAfter changing joins, send every
  /// register this join changed to Top. Queues the node when it changed.
  void propagate(u64 node, const State& st) {
    Slot& slot = slots_[node];
    const State before = slot.state;
    if (!slot.state.join_from(st)) return;
    if (++slot.joins > kWidenAfter && before.reached) {
      for (unsigned r = 1; r < 32; ++r) {
        if (slot.state.regs[r] != before.regs[r]) slot.state.regs[r] = AbsVal::top();
      }
    }
    work_.push_back(node);
  }

  /// Drain the worklist: `visit(node, entry)` sees each queued node's entry
  /// state (a copy: the visit may propagate back into the node itself).
  template <typename Visit>
  void solve(Visit&& visit) {
    while (!work_.empty()) {
      const u64 node = work_.front();
      work_.pop_front();
      const State entry = slots_[node].state;
      visit(node, entry);
    }
  }

  /// CFG form: nodes are block starts. Each queued block is run through
  /// `step(pc, inst, st)` instruction by instruction, and its exit state goes
  /// to the edge hook `edges(block, out)`, which propagates into successors.
  template <typename Step, typename Edges>
  void solve(const Image& img, const Cfg& cfg, Step&& step, Edges&& edges) {
    solve([&](u64 at, const State& entry) {
      const BasicBlock* bb = cfg.block_at(at);
      if (bb == nullptr) return;
      edges(*bb, interpret(img, *bb, entry, step));
    });
  }

  /// Fixpoint entry state of `node`; nullptr when it was never reached.
  const State* state_at(u64 node) const {
    auto it = slots_.find(node);
    return it == slots_.end() || !it->second.state.reached ? nullptr
                                                           : &it->second.state;
  }

  /// Run `step` over `bb` from `st`; returns the block's exit state.
  template <typename Step>
  static State interpret(const Image& img, const BasicBlock& bb, State st,
                         Step&& step) {
    for (u64 pc = bb.start; pc < bb.end; pc += 4) step(pc, img.inst_at(pc), st);
    return st;
  }

 private:
  struct Slot {
    State state;
    int joins = 0;
  };
  std::map<u64, Slot> slots_;
  std::deque<u64> work_;
};

}  // namespace ptstore::analysis
