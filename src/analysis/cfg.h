// Control-flow graph recovery from an assembled guest image. Reachability-
// driven: blocks are discovered by exploring from the entry point (and any
// extra roots), so data words interleaved with code are never decoded as
// instructions unless control flow can actually reach them.
//
// Call modeling: a linking jal produces BOTH a kCall edge into the callee
// (analyzed with the caller's state) and a kCallReturn edge to the return
// address — the abstract interpreter clobbers caller-saved registers along
// the latter, which soundly over-approximates any callee the CFG can see.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "analysis/image.h"

namespace ptstore::analysis {

enum class EdgeKind : u8 {
  kFallthrough,  ///< Straight-line successor (incl. branch not-taken).
  kBranch,       ///< Conditional branch taken.
  kJump,         ///< jal x0 (goto).
  kCall,         ///< Linking jal: into the callee.
  kCallReturn,   ///< Linking jal: the post-call continuation in the caller.
};

const char* edge_kind_name(EdgeKind k);

struct Edge {
  u64 to = 0;
  EdgeKind kind = EdgeKind::kFallthrough;
};

struct BasicBlock {
  u64 start = 0;
  u64 end = 0;  ///< Exclusive: address just past the last instruction.
  std::vector<Edge> succs;
  std::vector<u64> preds;      ///< Start addresses of predecessor blocks.
  bool indirect_exit = false;  ///< Ends in jalr (computed target).
  bool leaves_image = false;   ///< Has a resolved target outside the image.

  size_t inst_count() const { return (end - start) / 4; }
};

class Cfg {
 public:
  /// Recover the CFG reachable from image.base plus `extra_roots`.
  static Cfg build(const Image& img, const std::vector<u64>& extra_roots = {});

  /// Blocks in ascending start-address order.
  const std::vector<BasicBlock>& blocks() const { return blocks_; }

  const BasicBlock* block_at(u64 start) const;
  /// Block whose [start, end) covers `pc`, if any.
  const BasicBlock* block_containing(u64 pc) const;

  /// Instruction-level reachability.
  bool reachable(u64 pc) const { return reachable_.count(pc) != 0; }
  const std::set<u64>& reachable_pcs() const { return reachable_; }

 private:
  std::vector<BasicBlock> blocks_;
  std::map<u64, size_t> by_start_;
  std::set<u64> reachable_;
};

/// Direct control-flow targets of a terminator at `pc` (empty for indirect
/// exits and stream-ending instructions). Exposed for tests.
std::vector<Edge> terminator_edges(const isa::Inst& in, u64 pc);

/// The plain reachability walk (CFG discovery, function partitioning,
/// backward slicing): every node reachable from `seeds`, seeds included.
/// `expand(node, visit)` calls `visit(next)` for each successor; nodes are
/// expanded once each, in breadth-first order.
template <typename Expand>
std::set<u64> reachable_from(const std::vector<u64>& seeds, Expand&& expand) {
  std::set<u64> seen;
  std::deque<u64> work;
  const auto visit = [&](u64 node) {
    if (seen.insert(node).second) work.push_back(node);
  };
  for (const u64 s : seeds) visit(s);
  while (!work.empty()) {
    const u64 node = work.front();
    work.pop_front();
    expand(node, visit);
  }
  return seen;
}

}  // namespace ptstore::analysis
