// Counterexample replay tests — the other half of the matrix argument: every
// abstract counterexample the model checker produces must be architecturally
// real (replay on the mutated System reproduces the attack) and must be
// stopped by the stock system (replay with all defences on is defended).
// The matrix tests run at one and two model harts; the second hart adds the
// `ipi` mutation's stale-satp P2 witness.
//
// PtmcReplay.Golden pins the verdicts byte-for-byte: for every
// counterexample of the mutation matrix (1 and 2 harts) and of the stock
// capability set (1 hart), the property plus the mutated and stock
// outcome + detail must match tests/golden/ptmc_replay.txt. On a mismatch
// the actual dump is written to
// <build>/tests/ptmc_replay_golden.actual/ptmc_replay.txt.
#include "harness/ptmc_replay.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

namespace ptstore::harness {
namespace {

namespace ptmc = analysis::ptmc;
using attacks::Outcome;

/// The bounds `ptmc --harts N` runs with: the second hart needs the wide
/// depth/state budget to close.
ptmc::ModelConfig cli_config(unsigned nharts) {
  ptmc::ModelConfig cfg;
  cfg.nharts = nharts;
  if (nharts >= 2) {
    cfg.max_depth = 20;
    cfg.max_states = 8'000'000;
  }
  return cfg;
}

/// `ptmc --backend stock`: every defence off, stop once P1..P4 all fell.
ptmc::ModelConfig stock_config() {
  ptmc::ModelConfig cfg;
  cfg.s_bit = cfg.ptw_check = cfg.token_check = cfg.zero_check = false;
  cfg.stop_after_violated = ptmc::kAllProps;
  return cfg;
}

const std::vector<ptmc::Counterexample>& matrix_counterexamples(
    unsigned nharts) {
  static std::map<unsigned, std::vector<ptmc::Counterexample>> cache;
  auto [it, fresh] = cache.try_emplace(nharts);
  if (!fresh) return it->second;
  for (const ptmc::MutationEntry& m :
       ptmc::mutation_matrix(cli_config(nharts))) {
    if (m.must_break == 0) continue;
    ptmc::ModelConfig cfg = m.cfg;
    cfg.stop_after_violated = m.must_break;
    const ptmc::CheckResult res = ptmc::check(cfg);
    for (unsigned p = 0; p < ptmc::kNumProps; ++p) {
      if (!(m.must_break & (1u << p))) continue;
      const ptmc::Counterexample* ce = res.counterexample_for(p);
      if (ce != nullptr) it->second.push_back(*ce);
    }
  }
  return it->second;
}

class PtmcReplayMatrix : public ::testing::TestWithParam<unsigned> {};

TEST_P(PtmcReplayMatrix, MatrixCoversAllFourProperties) {
  u8 props = 0;
  for (const ptmc::Counterexample& ce : matrix_counterexamples(GetParam())) {
    props |= static_cast<u8>(1u << ce.prop);
  }
  EXPECT_EQ(props, ptmc::kAllProps);
}

TEST_P(PtmcReplayMatrix, MutatedSystemReproducesEveryCounterexample) {
  for (const ptmc::Counterexample& ce : matrix_counterexamples(GetParam())) {
    const ReplayReport rep = replay_counterexample(ce);
    EXPECT_EQ(rep.outcome, Outcome::kSucceeded)
        << ptmc::prop_name(ce.prop) << ": " << rep.detail;
  }
}

TEST_P(PtmcReplayMatrix, StockSystemStopsEveryCounterexample) {
  for (const ptmc::Counterexample& ce : matrix_counterexamples(GetParam())) {
    const ReplayReport rep = replay_on_stock(ce);
    EXPECT_TRUE(rep.defended())
        << ptmc::prop_name(ce.prop) << " replayed to " << to_string(rep.outcome)
        << " on a fully-defended system: " << rep.detail;
    EXPECT_FALSE(rep.detail.empty());
  }
}

TEST_P(PtmcReplayMatrix, ReplayLogNamesEachOp) {
  const auto& ces = matrix_counterexamples(GetParam());
  ASSERT_FALSE(ces.empty());
  const ReplayReport rep = replay_counterexample(ces.front());
  EXPECT_GE(rep.log.size(), ces.front().steps.size());
  // Each line is an executed CampaignOp in ptcampaign's repro format.
  for (const std::string& line : rep.log) {
    EXPECT_NE(line.find(" pid="), std::string::npos) << line;
    EXPECT_NE(line.find(" -> "), std::string::npos) << line;
  }
}

INSTANTIATE_TEST_SUITE_P(Harts, PtmcReplayMatrix, ::testing::Values(1u, 2u),
                         [](const auto& info) {
                           return std::to_string(info.param);
                         });

// The stock capability set's P1 trace: p0 runs on an in-region root, the
// attacker sprays tables into normal memory, then writes the live root.
// That write must plant the entry chaining the root to the sprayed tables,
// so the walk really consumes them; the defended system faults the write.
TEST(PtmcReplay, StockP1ChainsTheLiveRootToSprayedTables) {
  const ptmc::CheckResult res = ptmc::check(stock_config());
  const ptmc::Counterexample* ce = res.counterexample_for(0);
  ASSERT_NE(ce, nullptr);
  const ReplayReport mut = replay_counterexample(*ce);
  EXPECT_EQ(mut.outcome, Outcome::kSucceeded) << mut.detail;
  const ReplayReport stock = replay_on_stock(*ce);
  EXPECT_EQ(stock.outcome, Outcome::kBlockedFault) << stock.detail;
}

std::string dump_replays(const std::string& label,
                         const ptmc::ModelConfig& cfg) {
  std::ostringstream os;
  for (const ptmc::Counterexample& ce : ptmc::check(cfg).counterexamples) {
    const ReplayReport mut = replay_counterexample(ce);
    const ReplayReport stock = replay_on_stock(ce);
    os << "=== " << label << " " << ptmc::prop_name(ce.prop) << " ===\n"
       << "mutated: " << to_string(mut.outcome) << " | " << mut.detail << "\n"
       << "stock: " << to_string(stock.outcome) << " | " << stock.detail
       << "\n";
  }
  return os.str();
}

TEST(PtmcReplay, Golden) {
  std::string dump;
  for (const unsigned harts : {1u, 2u}) {
    // `ptmc --matrix --replay --harts N`: each entry stops once its targets
    // fall, and every counterexample found (collateral ones too) replays.
    for (const ptmc::MutationEntry& e :
         ptmc::mutation_matrix(cli_config(harts))) {
      ptmc::ModelConfig cfg = e.cfg;
      cfg.stop_after_violated = e.must_break;
      dump += dump_replays("mutate " + std::string(e.name) + " harts " +
                               std::to_string(harts), cfg);
    }
  }
  dump += dump_replays("backend stock harts 1", stock_config());

  const std::string file = "ptmc_replay.txt";
  std::ifstream is(std::string(PTSTORE_GOLDEN_DIR) + "/" + file);
  std::ostringstream golden;
  golden << is.rdbuf();
  if (golden.str() == dump) return;
  const std::filesystem::path out_dir(PTSTORE_REPLAY_GOLDEN_ACTUAL_DIR);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir / file) << dump;
  ADD_FAILURE() << file << " differs from the golden; full dump: "
                << (out_dir / file).string();
}

}  // namespace
}  // namespace ptstore::harness
