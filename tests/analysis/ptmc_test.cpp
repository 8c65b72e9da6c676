// Model-checker tests: the defences-on system proves P1-P4 over its entire
// reachable closure; each mutation-matrix entry breaks exactly its targeted
// properties with a shallow counterexample; exports are well-formed; and the
// parallel check() matches a serial reference BFS byte for byte.
#include <random>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/ptmc.h"
#include "telemetry/json.h"

namespace ptstore::analysis::ptmc {
namespace {

TEST(Ptmc, DefencesOnHoldExhaustively) {
  const CheckResult res = check(ModelConfig{});
  EXPECT_TRUE(res.ok()) << res.format();
  EXPECT_EQ(res.props_violated, 0u);
  // The default bounds exceed the closure: "holds" here means exhaustive
  // over the abstraction, not merely bound-limited.
  EXPECT_TRUE(res.complete) << res.format();
  EXPECT_FALSE(res.depth_capped);
  EXPECT_FALSE(res.state_capped);
  EXPECT_GT(res.states, 100'000u);  // the closure is ~254k states
  EXPECT_GE(res.depth, 10u);
  EXPECT_TRUE(res.counterexamples.empty());
}

TEST(Ptmc, PackDistinguishesStateComponents) {
  const State base = State::initial();
  const u64 key = base.pack();
  EXPECT_EQ(key, State::initial().pack());  // deterministic
  EXPECT_TRUE(State::unpack(key) == base);

  // Each perturbation packs to a new key, and unpacks back to itself.
  const auto distinct = [&](const State& s) {
    EXPECT_NE(s.pack(), key);
    EXPECT_TRUE(State::unpack(s.pack()) == s);
  };
  State s = base;
  s.boundary = 1;
  distinct(s);
  s = base;
  s.pages[0].content = PageContent::kAttacker;
  distinct(s);
  s = base;
  s.procs[1].live = true;
  distinct(s);
  s = base;
  s.tokens[0].live = true;
  distinct(s);
  s = base;
  s.satp.s = !s.satp.s;
  distinct(s);
  s = base;
  s.forced_alloc = 2;
  distinct(s);
}

TEST(Ptmc, OpAlphabetIsFixedAndDescribable) {
  const auto& ops = all_ops();
  EXPECT_EQ(ops.size(), 48u);
  for (const Op& op : ops) EXPECT_FALSE(describe(op).empty());
}

TEST(Ptmc, MutationMatrixBreaksExactlyItsTargets) {
  for (const MutationEntry& m : mutation_matrix(ModelConfig{})) {
    ModelConfig cfg = m.cfg;
    cfg.stop_after_violated = m.must_break;
    const CheckResult res = check(cfg);
    EXPECT_EQ(res.props_violated & m.must_break, m.must_break)
        << m.name << ": " << res.format();
    EXPECT_EQ(res.props_violated & ~(m.must_break | m.may_also_break), 0u)
        << m.name << ": " << res.format();
    for (unsigned p = 0; p < kNumProps; ++p) {
      if (!(res.props_violated & (1u << p))) continue;
      const Counterexample* ce = res.counterexample_for(p);
      ASSERT_NE(ce, nullptr) << m.name << " " << prop_name(p);
      ASSERT_FALSE(ce->steps.empty());
      // BFS order: counterexamples are shortest-first and stay shallow.
      EXPECT_LE(ce->steps.size(), 8u) << m.name << " " << prop_name(p);
      EXPECT_NE(ce->steps.back().violations & (1u << p), 0u);
    }
  }
}

TEST(Ptmc, PtwCheckAloneIsRedundantDefenceInDepth) {
  // Disabling only the walker check breaks nothing: token validation still
  // pins satp to kernel-issued roots, so no secure-PTE bypass is reachable.
  std::vector<MutationEntry> matrix = mutation_matrix(ModelConfig{});
  const MutationEntry* alone = nullptr;
  for (const MutationEntry& m : matrix) {
    if (std::string(m.name) == "ptw-alone") alone = &m;
  }
  ASSERT_NE(alone, nullptr);
  EXPECT_EQ(alone->must_break, 0u);
  const CheckResult res = check(alone->cfg);
  EXPECT_TRUE(res.ok()) << res.format();
  EXPECT_TRUE(res.complete);
}

TEST(Ptmc, CsrGadgetBreaksSatpBinding) {
  ModelConfig cfg;
  cfg.csr_gadget = true;
  cfg.stop_after_violated = kP2;
  const CheckResult res = check(cfg);
  EXPECT_NE(res.props_violated & kP2, 0u) << res.format();
  const Counterexample* ce = res.counterexample_for(1);
  ASSERT_NE(ce, nullptr);
  EXPECT_LE(ce->steps.size(), 2u);  // the gadget is a one-shot bypass
}

TEST(Ptmc, DotExportIsWellFormed) {
  ModelConfig cfg;
  cfg.token_check = false;
  cfg.stop_after_violated = kP2;
  const CheckResult res = check(cfg);
  const Counterexample* ce = res.counterexample_for(1);
  ASSERT_NE(ce, nullptr);
  const std::string dot = to_dot(*ce);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
  EXPECT_EQ(dot.find('\t'), std::string::npos);
}

TEST(Ptmc, JsonExportParsesWithExpectedSchema) {
  ModelConfig cfg;
  cfg.token_check = false;
  cfg.stop_after_violated = kP2;
  const CheckResult res = check(cfg);
  const auto doc = telemetry::json_parse(to_json(res));
  ASSERT_TRUE(doc.has_value());
  const telemetry::JsonValue* props = doc->find("properties");
  ASSERT_NE(props, nullptr);
  ASSERT_TRUE(props->is_array());
  EXPECT_EQ(props->arr.size(), kNumProps);
  const telemetry::JsonValue* states = doc->find("states");
  ASSERT_NE(states, nullptr);
  EXPECT_GT(states->number, 0);
  const telemetry::JsonValue* ces = doc->find("counterexamples");
  ASSERT_NE(ces, nullptr);
  ASSERT_TRUE(ces->is_array());
  ASSERT_FALSE(ces->arr.empty());
  const telemetry::JsonValue* steps = ces->arr[0].find("steps");
  ASSERT_NE(steps, nullptr);
  EXPECT_FALSE(steps->arr.empty());
}

TEST(Ptmc, FormatSummarisesVerdicts) {
  ModelConfig cfg;
  cfg.token_check = false;
  cfg.stop_after_violated = kP2;
  const std::string text = check(cfg).format();
  EXPECT_NE(text.find("P2"), std::string::npos);
  EXPECT_NE(text.find("VIOLATED"), std::string::npos);
}

// Op IDs are an external ABI: counterexample JSON, replay logs, and the
// campaign reproducers all name ops by index. The alphabet is append-only —
// this golden pins every ID to its describe() string, so any reorder,
// removal, or mid-list insertion fails here instead of silently re-keying
// persisted counterexamples. New ops may only append past ID 50.
TEST(Ptmc, OpIdsAreAppendOnlyGolden) {
  static const char* const kGolden[] = {
      "spawn(p0)",
      "exit_mm(p0)",
      "switch_mm(p0)",
      "alloc_pt(p0)",
      "free_pt(p0)",
      "spawn(p1)",
      "exit_mm(p1)",
      "switch_mm(p1)",
      "alloc_pt(p1)",
      "free_pt(p1)",
      "grow_secure_region()",
      "user_access()",
      "atk: write page0",
      "atk: write page1",
      "atk: write page2",
      "atk: write page3",
      "atk: pcb[0].pgd = page0",
      "atk: pcb[0].pgd = page1",
      "atk: pcb[0].pgd = page2",
      "atk: pcb[0].pgd = page3",
      "atk: pcb[1].pgd = page0",
      "atk: pcb[1].pgd = page1",
      "atk: pcb[1].pgd = page2",
      "atk: pcb[1].pgd = page3",
      "atk: pcb[0].token = none",
      "atk: pcb[0].token = slot0",
      "atk: pcb[0].token = slot1",
      "atk: pcb[0].token = fake",
      "atk: pcb[1].token = none",
      "atk: pcb[1].token = slot0",
      "atk: pcb[1].token = slot1",
      "atk: pcb[1].token = fake",
      "atk: token_slot[0] := page0",
      "atk: token_slot[0] := page1",
      "atk: token_slot[0] := page2",
      "atk: token_slot[0] := page3",
      "atk: token_slot[1] := page0",
      "atk: token_slot[1] := page1",
      "atk: token_slot[1] := page2",
      "atk: token_slot[1] := page3",
      "atk: freelist head = page0",
      "atk: freelist head = page1",
      "atk: freelist head = page2",
      "atk: freelist head = page3",
      "atk: csrw satp = page0",
      "atk: csrw satp = page1",
      "atk: csrw satp = page2",
      "atk: csrw satp = page3",
      "switch_mm(p0)@h1",
      "switch_mm(p1)@h1",
      "user_access()@h1",
  };
  const auto& smp = all_ops_smp();
  ASSERT_EQ(smp.size(), std::size(kGolden));
  for (size_t i = 0; i < smp.size(); ++i) {
    EXPECT_EQ(describe(smp[i]), kGolden[i]) << "op ID " << i << " re-keyed";
  }
  // The single-hart alphabet is exactly the SMP alphabet's prefix.
  const auto& ops = all_ops();
  ASSERT_EQ(ops.size(), 48u);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(describe(ops[i]), kGolden[i]);
  }
}

// ---- SMP model tests --------------------------------------------------------

TEST(Ptmc, SmpDefencesOnHoldExhaustively) {
  ModelConfig cfg;
  cfg.nharts = 2;
  cfg.max_states = 2'000'000;
  cfg.max_depth = 18;
  const CheckResult res = check(cfg);
  EXPECT_TRUE(res.ok()) << res.format();
  EXPECT_TRUE(res.complete) << res.format();
  EXPECT_GT(res.states, 500'000u);  // the 2-hart closure is ~991k states
}

// Dropping the shootdown IPI is only observable with a second hart: the
// mutation matrix gains the entry at nharts >= 2, it breaks exactly P2, and
// the counterexample ends with the remote hart's user access through the
// stale, recycled root.
TEST(Ptmc, SmpIpiMutationBreaksP2WithStaleRootWitness) {
  ModelConfig base;
  base.nharts = 2;
  base.max_states = 2'000'000;
  base.max_depth = 18;
  bool found = false;
  for (const MutationEntry& m : mutation_matrix(base)) {
    if (std::string(m.name) != "ipi") continue;
    found = true;
    EXPECT_EQ(m.must_break, kP2);
    ModelConfig cfg = m.cfg;
    cfg.stop_after_violated = m.must_break;
    const CheckResult res = check(cfg);
    EXPECT_EQ(res.props_violated, kP2) << res.format();
    ASSERT_FALSE(res.counterexamples.empty());
    const Counterexample& ce = res.counterexamples.front();
    ASSERT_FALSE(ce.steps.empty());
    const Step& last = ce.steps.back();
    EXPECT_EQ(last.op.kind, OpKind::kUserAccess);
    EXPECT_EQ(last.op.hart, 1);
    EXPECT_NE(last.note.find("stale root"), std::string::npos) << last.note;
  }
  EXPECT_TRUE(found) << "mutation matrix lost its ipi entry at nharts=2";
  // ...and the entry must NOT exist on a single-hart model, where skipping
  // the IPI is unobservable and would poison the matrix with a vacuous row.
  for (const MutationEntry& m : mutation_matrix(ModelConfig{})) {
    EXPECT_NE(std::string(m.name), "ipi");
  }
}

// The model exists for one or two harts only; any other count is a caller
// error, not a request for the nearest model.
TEST(Ptmc, RejectsUnsupportedHartCounts) {
  for (const unsigned harts : {0u, 3u}) {
    ModelConfig cfg;
    cfg.nharts = harts;
    EXPECT_THROW(check(cfg), std::invalid_argument) << "nharts=" << harts;
  }
}

TEST(Ptmc, SmpPackDistinguishesSecondHartSatp) {
  ModelConfig cfg;
  cfg.nharts = 2;
  const State base = State::initial();
  State s = base;
  s.satp_of(1).root = 2;
  EXPECT_NE(s.pack(), base.pack());
  s = base;
  s.satp_of(1).bound = false;
  EXPECT_NE(s.pack(), base.pack());
}

// ---- Serial reference -------------------------------------------------------

// The single-threaded BFS check() replaced, kept as an oracle: a frontier of
// (key, state) pairs, a hash map of parent edges, and every successor taken
// in order (count, violations, early stop, dedup, state budget). It also
// checks that every state it reaches survives State::unpack(pack()).
CheckResult serial_reference(const ModelConfig& cfg) {
  CheckResult res;
  const std::vector<Op>& alphabet = cfg.nharts == 2 ? all_ops_smp() : all_ops();
  const State init = State::initial();
  const u64 init_key = init.pack();
  EXPECT_TRUE(State::unpack(init_key) == init);

  // Packed state -> (parent key, op ID) of the edge that first reached it.
  std::unordered_map<u64, std::pair<u64, size_t>> parent{{init_key, {init_key, 0}}};
  const auto rebuild = [&](unsigned prop, u64 src, size_t op_id) {
    std::vector<size_t> ids{op_id};
    for (u64 key = src; key != init_key; key = parent.at(key).first)
      ids.push_back(parent.at(key).second);
    Counterexample ce;
    ce.prop = prop;
    ce.cfg = cfg;
    State cur = init;
    for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
      Step step;
      step.op = alphabet[*it];
      const auto suc = apply(cur, step.op, cfg, &step.note);
      step.after = suc ? suc->next : cur;
      step.violations = suc ? suc->violations : 0;
      ce.steps.push_back(std::move(step));
      if (suc) cur = suc->next;
    }
    return ce;
  };

  std::vector<std::pair<u64, State>> level{{init_key, init}};
  std::vector<std::pair<u64, State>> next_level;
  u64 round_trip_failures = 0;
  for (u32 depth = 0; !level.empty(); ++depth) {
    res.depth = depth;
    if (depth >= cfg.max_depth) {
      res.depth_capped = true;
      break;
    }
    next_level.clear();
    for (const auto& [key, s] : level) {
      for (size_t id = 0; id < alphabet.size(); ++id) {
        const auto suc = apply(s, alphabet[id], cfg);
        if (!suc) continue;
        ++res.transitions;
        const u64 next = suc->next.pack();
        for (unsigned p = 0; p < kNumProps; ++p) {
          const u8 bit = static_cast<u8>(1u << p);
          if ((suc->violations & bit) != 0 && (res.props_violated & bit) == 0) {
            res.props_violated |= bit;
            res.counterexamples.push_back(rebuild(p, key, id));
          }
        }
        if (suc->violations != 0 && cfg.stop_after_violated != 0 &&
            (res.props_violated & cfg.stop_after_violated) == cfg.stop_after_violated) {
          res.early_stopped = true;
          res.states = parent.size();
          EXPECT_EQ(round_trip_failures, 0u);
          return res;
        }
        if (parent.contains(next)) continue;
        if (parent.size() >= cfg.max_states) {
          res.state_capped = true;
          continue;
        }
        if (!(State::unpack(next) == suc->next)) ++round_trip_failures;
        parent.emplace(next, std::pair{key, id});
        next_level.emplace_back(next, suc->next);
      }
    }
    level.swap(next_level);
  }
  EXPECT_EQ(round_trip_failures, 0u) << "State::unpack is not pack's inverse";
  res.states = parent.size();
  res.complete = !res.depth_capped && !res.state_capped;
  return res;
}

// check() expands each level on every hardware thread and merges the blocks
// in frontier order; its report must equal the serial BFS's byte for byte
// over random configurations: every defence and capability flag, one and
// two harts, depth bounds 1-20, state budgets on level boundaries and inside
// levels (wide enough for multi-block levels), and random early-stop masks.
TEST(Ptmc, ParallelCheckMatchesSerialReference) {
  std::mt19937_64 rng(0x9d7c3a11);
  const auto coin = [&rng] { return (rng() & 1) != 0; };
  const auto below = [&rng](u64 n) { return rng() % n; };
  for (int i = 0; i < 300; ++i) {
    ModelConfig cfg;
    cfg.s_bit = coin();
    cfg.ptw_check = coin();
    cfg.token_check = coin();
    cfg.zero_check = coin();
    cfg.csr_gadget = below(4) == 0;
    cfg.allow_grow = below(4) != 0;
    cfg.verify_on_walk = below(3) == 0;
    cfg.cred_unforgeable = below(3) == 0;
    cfg.nharts = coin() ? 2 : 1;
    cfg.ipi = coin();
    cfg.max_depth = static_cast<u32>(1 + below(20));
    cfg.stop_after_violated = coin() ? static_cast<u8>(below(16)) : 0;
    // Mostly small budgets; one in six is wide enough that a level spans
    // several worker blocks.
    const u64 budget = below(6) == 0 ? 12'000 + below(28'000) : 1 + below(4'000);
    cfg.max_states = budget;
    if (coin()) {
      // Land the budget exactly on a level boundary: the state count of a
      // shallower run that only its depth bound stopped.
      ModelConfig probe = cfg;
      probe.max_depth = static_cast<u32>(1 + below(std::min<u32>(cfg.max_depth, 4)));
      probe.max_states = 1'000'000;
      probe.stop_after_violated = 0;
      const CheckResult boundary = serial_reference(probe);
      ASSERT_FALSE(boundary.state_capped);
      cfg.max_states = boundary.states;
    }
    const CheckResult want = serial_reference(cfg);
    const CheckResult got = check(cfg);
    ASSERT_EQ(got.format(), want.format()) << "config #" << i << ": " << to_json(want);
    ASSERT_EQ(to_json(got), to_json(want)) << "config #" << i;
  }
}

}  // namespace
}  // namespace ptstore::analysis::ptmc
