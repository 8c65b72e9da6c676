#include "analysis/callgraph.h"

#include <algorithm>
#include <sstream>

#include "analysis/dataflow.h"
#include "analysis/effects.h"

namespace ptstore::analysis {
namespace {

using isa::Inst;
using isa::Op;

/// The resolver's lattice: register intervals only.
struct IntervalState {
  RegIntervals regs;
  bool reached = false;

  bool join_from(const IntervalState& o) {
    if (!o.reached) return false;
    if (!reached) {
      *this = o;
      return true;
    }
    return join_intervals(regs, o.regs);
  }
};

/// Interval of the jalr target (rs1 + imm) at every indirect exit, by pc:
/// one whole-image engine run seeded at every known function entry, with
/// caller-saved registers clobbered across call-return edges. Precision is
/// only needed for the li/auipc-materialised function-pointer idiom.
std::map<u64, Domain> resolve_jalr_targets(const Image& img, const Cfg& cfg,
                                           const std::set<u64>& roots) {
  std::map<u64, Domain> targets;
  Dataflow<IntervalState> df;
  IntervalState entry;
  entry.regs = entry_intervals();
  entry.reached = true;
  for (const u64 r : roots) {
    if (cfg.block_at(r) != nullptr) df.seed(r, entry);
  }
  const auto step = [&](u64 pc, const Inst& in, IntervalState& st) {
    if (in.op == Op::kJalr) {
      const Domain t =
          Domain::add(st.regs[in.rs1], Domain::exact(static_cast<u64>(in.imm)));
      auto [it, fresh] = targets.emplace(pc, t);
      if (!fresh) it->second = it->second.join(t);
    }
    interval_step(pc, in, st.regs);
  };
  df.solve(img, cfg, step, [&](const BasicBlock& bb, const IntervalState& out) {
    for (const Edge& e : bb.succs) {
      IntervalState next = out;
      if (e.kind == EdgeKind::kCallReturn) clobber_caller_saved(next.regs);
      df.propagate(e.to, next);
    }
  });
  return targets;
}

std::string function_name(const Image& img, u64 entry) {
  const Symbol* sym = img.symbol_at(entry);
  if (sym != nullptr) return sym->name;
  std::ostringstream os;
  os << "fn_0x" << std::hex << entry;
  return os.str();
}

}  // namespace

const CallSite* Function::call_at(u64 pc) const {
  for (const CallSite& cs : calls) {
    if (cs.pc == pc) return &cs;
  }
  return nullptr;
}

CallGraph CallGraph::build(const Image& img, const std::vector<u64>& extra_roots) {
  CallGraph cg;
  std::set<u64> entries;
  const auto add_entry = [&](u64 e) {
    return img.contains(e) && entries.insert(e).second;
  };
  add_entry(img.base);
  for (const u64 r : extra_roots) add_entry(r);
  if (entries.empty()) return cg;

  // Discovery loop: entries grow as direct targets and resolved indirect
  // targets surface; the CFG is rebuilt so new entries become leaders. It
  // runs until the entry set is stable, which it must become: the set only
  // grows and is bounded by the image's instruction words.
  for (bool grew = true; grew;) {
    cg.fns_.clear();
    cg.by_entry_.clear();
    const std::vector<u64> roots(entries.begin(), entries.end());
    cg.cfg_ = Cfg::build(img, roots);

    grew = false;
    for (const BasicBlock& bb : cg.cfg_.blocks()) {
      for (const Edge& e : bb.succs) {
        if (e.kind == EdgeKind::kCall && add_entry(e.to)) grew = true;
      }
    }
    if (grew) continue;  // New direct-call entries: rebuild once more.

    const std::map<u64, Domain> jalr_targets =
        resolve_jalr_targets(img, cg.cfg_, entries);

    // Partition blocks into functions and classify every call site.
    for (const u64 entry : entries) {
      if (cg.cfg_.block_at(entry) == nullptr) continue;
      Function fn;
      fn.entry = entry;
      fn.name = function_name(img, entry);
      reachable_from({entry}, [&](u64 at, const auto& follow) {
        const BasicBlock* bb = cg.cfg_.block_at(at);
        if (bb == nullptr) return;
        fn.blocks.push_back(at);

        const u64 term_pc = bb->end - 4;
        const Inst term = img.inst_at(term_pc);

        if (term.op == Op::kJal && term.rd != 0) {
          // Direct call; the continuation (kCallReturn edge) stays ours.
          CallSite cs;
          cs.pc = term_pc;
          const u64 target = term_pc + static_cast<u64>(term.imm);
          if (img.contains(target)) {
            cs.targets.push_back(target);
            cs.resolved = true;
          } else {
            fn.has_unresolved_call = true;  // Callee outside the image.
          }
          fn.calls.push_back(std::move(cs));
          for (const Edge& e : bb->succs) {
            if (e.kind == EdgeKind::kCallReturn) follow(e.to);
          }
          return;
        }
        if (term.op == Op::kJal) {  // rd == 0: goto or tail call.
          const u64 target = term_pc + static_cast<u64>(term.imm);
          if (img.contains(target) && entries.count(target) != 0 &&
              target != entry) {
            CallSite cs;
            cs.pc = term_pc;
            cs.targets.push_back(target);
            cs.resolved = true;
            cs.tail = true;
            fn.calls.push_back(std::move(cs));
          } else {
            for (const Edge& e : bb->succs) follow(e.to);
          }
          return;
        }
        if (term.op == Op::kJalr) {
          auto it = jalr_targets.find(term_pc);
          const Domain tgt =
              it == jalr_targets.end() ? Domain::top() : it->second;
          const u64 exact = tgt.lo & ~u64{1};
          if (is_return(term)) return;  // No successors.
          CallSite cs;
          cs.pc = term_pc;
          const bool tail = term.rd == 0;
          cs.tail = tail;
          if (tgt.is_singleton() && img.contains(exact)) {
            cs.targets.push_back(exact);
            cs.resolved = true;
            if (entries.insert(exact).second) grew = true;
          } else {
            fn.has_unresolved_call = true;
          }
          fn.calls.push_back(std::move(cs));
          if (!tail) {
            for (const Edge& e : bb->succs) {
              if (e.kind == EdgeKind::kCallReturn) follow(e.to);
            }
          }
          return;
        }
        for (const Edge& e : bb->succs) follow(e.to);
      });
      std::sort(fn.blocks.begin(), fn.blocks.end());
      cg.by_entry_[entry] = cg.fns_.size();
      cg.fns_.push_back(std::move(fn));
    }
  }  // Entry set stable: the last partition is final.

  cg.compute_sccs();
  return cg;
}

const Function* CallGraph::function_at(u64 entry) const {
  auto it = by_entry_.find(entry);
  return it == by_entry_.end() ? nullptr : &fns_[it->second];
}

const Function* CallGraph::function_containing(u64 pc) const {
  for (const Function& fn : fns_) {
    for (const u64 b : fn.blocks) {
      const BasicBlock* bb = cfg_.block_at(b);
      if (bb != nullptr && pc >= bb->start && pc < bb->end) return &fn;
    }
  }
  return nullptr;
}

size_t CallGraph::scc_id(u64 entry) const {
  auto it = scc_.find(entry);
  return it == scc_.end() ? static_cast<size_t>(-1) : it->second;
}

bool CallGraph::recursive(u64 entry) const {
  return recursive_.count(entry) != 0;
}

void CallGraph::compute_sccs() {
  // Iterative Tarjan over resolved call edges (incl. tail calls). SCCs pop
  // callees-first, which is exactly the bottom-up summary order.
  std::map<u64, size_t> index, low;
  std::vector<u64> stack;
  std::set<u64> on_stack;
  size_t next_index = 0, next_scc = 0;

  struct Frame {
    u64 entry;
    size_t edge = 0;
    std::vector<u64> succs;
  };

  for (const Function& root : fns_) {
    if (index.count(root.entry) != 0) continue;
    std::vector<Frame> frames;
    const auto push = [&](u64 e) {
      Frame f;
      f.entry = e;
      const Function* fn = function_at(e);
      if (fn != nullptr) {
        for (const CallSite& cs : fn->calls) {
          for (const u64 t : cs.targets) {
            if (by_entry_.count(t) != 0) f.succs.push_back(t);
          }
        }
      }
      index[e] = low[e] = next_index++;
      stack.push_back(e);
      on_stack.insert(e);
      frames.push_back(std::move(f));
    };
    push(root.entry);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.edge < f.succs.size()) {
        const u64 t = f.succs[f.edge++];
        if (index.count(t) == 0) {
          push(t);
        } else if (on_stack.count(t) != 0) {
          low[f.entry] = std::min(low[f.entry], index[t]);
        }
      } else {
        const u64 e = f.entry;
        const bool is_root = low[e] == index[e];
        frames.pop_back();
        if (!frames.empty()) {
          low[frames.back().entry] = std::min(low[frames.back().entry], low[e]);
        }
        if (is_root) {
          std::vector<u64> members;
          while (true) {
            const u64 m = stack.back();
            stack.pop_back();
            on_stack.erase(m);
            members.push_back(m);
            if (m == e) break;
          }
          const bool self_loop = [&] {
            if (members.size() > 1) return true;
            const Function* fn = function_at(e);
            if (fn == nullptr) return false;
            for (const CallSite& cs : fn->calls) {
              for (const u64 t : cs.targets) {
                if (t == e) return true;
              }
            }
            return false;
          }();
          for (const u64 m : members) {
            scc_[m] = next_scc;
            if (self_loop) recursive_.insert(m);
            bottom_up_.push_back(m);
          }
          ++next_scc;
        }
      }
    }
  }
}

}  // namespace ptstore::analysis
