// verify: exhaustive ptmc closures (four backends at 1 hart, ptstore at 2
// harts) and seeded proto/attack/smp campaigns with minimization on. Host
// time is BFS hashing, checkpoint forks and protocol-op execution.
#include "analysis/ptmc.h"
#include "harness/campaign.h"
#include "harness/fleet.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ptstore;
namespace mc = analysis::ptmc;

struct Closure {
  const char* name;
  mc::ModelConfig cfg;
  bool expect_breach;  ///< Stock: every property must be violated.
  u64 expect_states;   ///< 0 = not pinned.
};

/// ptmc capability sets, mirroring `ptmc --backend`.
mc::ModelConfig model_for(const std::string& backend, unsigned harts) {
  mc::ModelConfig cfg;
  cfg.nharts = harts;
  cfg.max_depth = 20;
  cfg.max_states = 8'000'000;
  if (backend == "stock") {
    // Undefended: every property falls; stop once each has its shortest
    // counterexample instead of sweeping the (huge) closure.
    cfg.s_bit = cfg.ptw_check = cfg.token_check = cfg.zero_check = false;
    cfg.stop_after_violated = mc::kAllProps;
  } else if (backend == "dpti") {
    cfg.ptw_check = false;
    cfg.cred_unforgeable = true;
  } else if (backend == "ptauth") {
    cfg.s_bit = false;
    cfg.ptw_check = false;
    cfg.verify_on_walk = true;
    cfg.cred_unforgeable = true;
  }
  return cfg;
}

std::vector<Closure> closures() {
  return {
      {"stock", model_for("stock", 1), true, 0},
      {"ptstore", model_for("ptstore", 1), false, 253'570},
      {"dpti", model_for("dpti", 1), false, 0},
      {"ptauth", model_for("ptauth", 1), false, 0},
      {"ptstore_2h", model_for("ptstore", 2), false, 990'980},
  };
}

/// Shards per campaign and ops per shard.
constexpr u64 kShards = 400;
constexpr u64 kOpsPerShard = 64;

std::vector<harness::CampaignSpec> campaign_specs(u64 seed) {
  std::vector<harness::CampaignSpec> specs;
  const harness::CampaignKind kinds[] = {harness::CampaignKind::kProto,
                                         harness::CampaignKind::kAttack,
                                         harness::CampaignKind::kSmp};
  for (size_t i = 0; i < std::size(kinds); ++i) {
    harness::CampaignSpec s;
    s.kind = kinds[i];
    s.seed = harness::shard_seed(seed, 300 + i);
    s.shards = kShards;
    s.ops_per_shard = kOpsPerShard;
    s.jobs = 2;
    s.minimize = true;
    s.nharts = kinds[i] == harness::CampaignKind::kSmp ? 2 : 1;
    specs.push_back(s);
  }
  return specs;
}

class Verify : public Workload {
 public:
  explicit Verify(u64 seed) : seed_(seed) {}

  /// The measured phase's inputs only: run_campaign boots its own masters,
  /// and their boot and fork times are the harness.* layer metrics.
  void setup() override {
    closures_ = closures();
    specs_ = campaign_specs(seed_);
  }

  PassOutcome measure(SpanLog& log) override {
    PassOutcome out;
    Digest d;
    u64 states = 0;
    u64 steps = 0;
    u64 ptmc_ns = 0;
    u64 campaign_ns = 0;
    u64 shards = 0;
    const bool traced = log.enabled();
    if (traced) campaign_timing_.clear();

    const u64 t0 = now_ns();
    {
      SpanScope pass(log, "pass");
      // Closures first: single-threaded, so the run's peak resident size
      // (reached by the ptauth closure) does not depend on thread timing.
      for (size_t i = 0; i < closures_.size(); ++i) {
        const Closure& c = closures_[i];
        const u64 t = now_ns();
        mc::CheckResult r;
        {
          SpanScope span(log, "ptmc.check", i);
          r = mc::check(c.cfg);
        }
        ptmc_ns += now_ns() - t;
        const std::string what = std::string("ptmc closure ") + c.name;
        out.check(c.expect_breach ? r.early_stopped
                                  : r.complete && !r.depth_capped && !r.state_capped,
                  what + " incomplete");
        out.check(c.expect_breach ? r.props_violated == mc::kAllProps : r.ok(),
                  what + (c.expect_breach ? " missed a breach" : " violated a property"));
        if (c.expect_states != 0) {
          out.check(r.states == c.expect_states,
                    what + " reached " + std::to_string(r.states) + " states, expected " +
                        std::to_string(c.expect_states));
        }
        states += r.states;
        steps += r.transitions;
        d.add(c.name);
        d.add(r.states);
        d.add(r.transitions);
        d.add(r.depth);
        d.add(r.props_violated);
        if (traced) {
          ptmc_states_ += r.states;
          ptmc_transitions_ += r.transitions;
        }
      }

      for (size_t i = 0; i < specs_.size(); ++i) {
        const harness::CampaignSpec& spec = specs_[i];
        const u64 t = now_ns();
        harness::CampaignResult r;
        {
          SpanScope span(log, "harness.run_campaign", i);
          r = harness::run_campaign(spec);
        }
        campaign_ns += now_ns() - t;
        const std::string what = std::string("campaign ") + harness::to_string(spec.kind);
        out.check(r.shards.size() == spec.shards, what + " lost shards");
        out.check(r.failures == 0, what + " reported " + std::to_string(r.failures) +
                                       " failing shards");
        shards += r.shards.size();
        out.sim_cycles += r.aggregate.get("core.cycles");
        d.add(what);
        d.add(r.failures);
        d.add(r.aggregate);
        u64 ops = 0;
        for (const harness::ShardOutcome& s : r.shards) ops += s.ops_executed;
        steps += ops;
        if (traced) {
          campaign_ops_ += ops;
          campaign_timing_.push_back({r.timing, spec.shards});
        }
      }
    }
    out.wall_s = seconds_since(t0);
    out.work = static_cast<double>(steps);
    out.rates["ptmc_states_per_s"] = static_cast<double>(states) / (ptmc_ns * 1e-9);
    out.rates["campaign_shards_per_s"] = static_cast<double>(shards) / (campaign_ns * 1e-9);
    out.digest = d.value();
    return out;
  }

  void layer_metrics(Metrics& m, const SpanLog& log, unsigned traced) const override {
    const double per = 1.0 / traced;
    const SpanLog::Totals* p = log.find("ptmc.check");
    const double ptmc_s = p != nullptr ? static_cast<double>(p->busy_ns) * per * 1e-9 : 0;
    m.add("ptmc.busy_s", ptmc_s, "s");
    m.add("ptmc.states", static_cast<double>(ptmc_states_) * per, "count");
    m.add("ptmc.transitions", static_cast<double>(ptmc_transitions_) * per, "count");
    m.add("ptmc.transitions_per_s",
          ptmc_s > 0 ? static_cast<double>(ptmc_transitions_) * per / ptmc_s : 0, "1/s");
    const SpanLog::Totals* c = log.find("harness.run_campaign");
    const double camp_s = c != nullptr ? static_cast<double>(c->busy_ns) * per * 1e-9 : 0;
    m.add("harness.campaign.busy_s", camp_s, "s");
    m.add("harness.campaign.ops_per_s",
          camp_s > 0 ? static_cast<double>(campaign_ops_) * per / camp_s : 0, "1/s");
    double boot_s = 0;
    double fork_s = 0;
    double amort = 0;
    for (const auto& [timing, n] : campaign_timing_) {
      boot_s += timing.boot_seconds;
      fork_s += timing.fork_seconds_total;
      amort += timing.boot_amortization(n);
    }
    m.add("harness.boot_s", boot_s, "s");
    m.add("harness.fork_s", fork_s, "s");
    m.add("harness.boot_amortization",
          campaign_timing_.empty() ? 0 : amort / static_cast<double>(campaign_timing_.size()),
          "x");
  }

 private:
  u64 seed_;
  std::vector<Closure> closures_;
  std::vector<harness::CampaignSpec> specs_;
  // Traced-pass accumulators.
  u64 ptmc_states_ = 0, ptmc_transitions_ = 0, campaign_ops_ = 0;
  std::vector<std::pair<harness::CampaignTiming, u64>> campaign_timing_;  ///< Last traced pass.
};

}  // namespace

std::unique_ptr<Workload> make_verify(u64 seed) { return std::make_unique<Verify>(seed); }

}  // namespace perfbench
