#include "analysis/symexec/slice.h"

#include "isa/inst.h"

namespace ptstore::analysis::symexec {

namespace {

/// Reverse closure over predecessor edges from `seeds`.
std::set<u64> reverse_closure(const Cfg& cfg, const std::vector<u64>& seeds) {
  return reachable_from(seeds, [&](u64 at, const auto& visit) {
    if (const BasicBlock* bb = cfg.block_at(at)) {
      for (const u64 pred : bb->preds) visit(pred);
    }
  });
}

}  // namespace

std::set<u64> backward_block_slice(const Cfg& cfg, u64 goal_pc) {
  const BasicBlock* goal = cfg.block_containing(goal_pc);
  if (goal == nullptr) return {};
  return reverse_closure(cfg, {goal->start});
}

std::set<u64> wild_block_slice(const Cfg& cfg, const Image& img) {
  std::vector<u64> seeds;
  for (const BasicBlock& bb : cfg.blocks()) {
    if (!bb.indirect_exit) continue;
    const u64 term_pc = bb.end - 4;
    bool is_ret = false;
    if (img.contains(term_pc)) {
      const isa::Inst term = img.inst_at(term_pc);
      is_ret = term.op == isa::Op::kJalr && term.rd == 0 && term.rs1 == 1 &&
               term.imm == 0;
    }
    if (!is_ret) seeds.push_back(bb.start);
  }
  if (seeds.empty()) return {};
  return reverse_closure(cfg, seeds);
}

}  // namespace ptstore::analysis::symexec
