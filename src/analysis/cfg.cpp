#include "analysis/cfg.h"

#include <algorithm>

namespace ptstore::analysis {

const char* edge_kind_name(EdgeKind k) {
  switch (k) {
    case EdgeKind::kFallthrough: return "fallthrough";
    case EdgeKind::kBranch: return "branch";
    case EdgeKind::kJump: return "jump";
    case EdgeKind::kCall: return "call";
    case EdgeKind::kCallReturn: return "call-return";
  }
  return "?";
}

std::vector<Edge> terminator_edges(const isa::Inst& in, u64 pc) {
  std::vector<Edge> out;
  if (in.is_branch()) {
    out.push_back({pc + static_cast<u64>(in.imm), EdgeKind::kBranch});
    out.push_back({pc + 4, EdgeKind::kFallthrough});
  } else if (in.op == isa::Op::kJal) {
    const u64 target = pc + static_cast<u64>(in.imm);
    if (in.rd != 0) {
      out.push_back({target, EdgeKind::kCall});
      out.push_back({pc + 4, EdgeKind::kCallReturn});
    } else {
      out.push_back({target, EdgeKind::kJump});
    }
  } else if (in.op == isa::Op::kJalr && in.rd != 0) {
    // Indirect call: the callee is unknown, but control conventionally
    // returns to pc+4 — keep analyzing the caller past the call site.
    out.push_back({pc + 4, EdgeKind::kCallReturn});
  }
  // jalr x0 (ret / computed goto), mret, sret, ebreak, wfi, illegal: no
  // statically resolvable successors.
  return out;
}

Cfg Cfg::build(const Image& img, const std::vector<u64>& extra_roots) {
  Cfg cfg;
  if (img.words.empty()) return cfg;

  // Pass 1: explore every reachable instruction, collecting block leaders
  // (the roots and every in-image terminator target).
  std::vector<u64> roots{img.base};
  roots.insert(roots.end(), extra_roots.begin(), extra_roots.end());
  std::erase_if(roots, [&](u64 pc) { return !img.contains(pc); });
  std::set<u64> leaders(roots.begin(), roots.end());
  cfg.reachable_ = reachable_from(roots, [&](u64 pc, const auto& visit) {
    const isa::Inst in = img.inst_at(pc);
    if (!in.is_terminator()) {
      if (img.contains(pc + 4)) visit(pc + 4);
      return;
    }
    for (const Edge& e : terminator_edges(in, pc)) {
      if (img.contains(e.to)) {
        leaders.insert(e.to);
        visit(e.to);
      }
    }
  });

  // Pass 2: slice the reachable instruction stream into blocks at leaders
  // and terminators.
  for (auto it = leaders.begin(); it != leaders.end(); ++it) {
    BasicBlock bb;
    bb.start = *it;
    u64 pc = bb.start;
    const auto next_leader = std::next(it);
    while (true) {
      const isa::Inst in = img.inst_at(pc);
      const u64 after = pc + 4;
      if (in.is_terminator()) {
        bb.end = after;
        if (in.op == isa::Op::kJalr) bb.indirect_exit = true;
        for (const Edge& e : terminator_edges(in, pc)) {
          if (img.contains(e.to)) {
            bb.succs.push_back(e);
          } else {
            bb.leaves_image = true;
          }
        }
        break;
      }
      if (!cfg.reachable_.count(after) ||
          (next_leader != leaders.end() && after == *next_leader)) {
        // Block runs into the next leader (or off the explored stream):
        // plain fallthrough.
        bb.end = after;
        if (cfg.reachable_.count(after)) {
          bb.succs.push_back({after, EdgeKind::kFallthrough});
        } else if (!img.contains(after)) {
          bb.leaves_image = true;  // Straight-line code runs off the image.
        }
        break;
      }
      pc = after;
    }
    cfg.by_start_[bb.start] = cfg.blocks_.size();
    cfg.blocks_.push_back(std::move(bb));
  }

  for (const BasicBlock& bb : cfg.blocks_) {
    for (const Edge& e : bb.succs) {
      auto it = cfg.by_start_.find(e.to);
      if (it != cfg.by_start_.end()) {
        cfg.blocks_[it->second].preds.push_back(bb.start);
      }
    }
  }
  return cfg;
}

const BasicBlock* Cfg::block_at(u64 start) const {
  auto it = by_start_.find(start);
  return it == by_start_.end() ? nullptr : &blocks_[it->second];
}

const BasicBlock* Cfg::block_containing(u64 pc) const {
  auto it = by_start_.upper_bound(pc);
  if (it == by_start_.begin()) return nullptr;
  --it;
  const BasicBlock& bb = blocks_[it->second];
  return pc < bb.end ? &bb : nullptr;
}

}  // namespace ptstore::analysis
