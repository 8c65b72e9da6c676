// Campaign workloads: the randomized fleet campaigns of src/harness exposed
// through the workload registry, so any bench driver (and ptprof) can run
// them with the shared --jobs / --shards / --campaign-seed flags. One
// registered workload per campaign kind:
//
//   campaign_proto  — random kernel-protocol op sequences.
//   campaign_diff   — random instruction streams vs. the two-ISA oracle.
//   campaign_attack — protocol ops interleaved with attacker primitives.
//   campaign_smp    — protocol ops scattered across >= 2 harts, interleaved
//                     with cross-hart stale-TLB race probes (--harts).
//
// The run fails (non-zero exit) when any shard reports a violation; the
// footer prints the boot-amortization speedup from checkpoint forking.
#include <cstdio>
#include <memory>
#include <sstream>

#include "harness/campaign.h"
#include "workloads/runner.h"

namespace ptstore::workloads {

namespace {

using harness::CampaignKind;
using harness::CampaignResult;
using harness::CampaignSpec;

class CampaignWorkload : public Workload {
 public:
  explicit CampaignWorkload(CampaignKind kind) : kind_(kind) {}

  std::string name() const override {
    return std::string("campaign_") + harness::to_string(kind_);
  }

  std::string title() const override {
    const FleetOptions& f = fleet_options();
    std::ostringstream os;
    os << "Randomized " << harness::to_string(kind_) << " campaign: "
       << spec_shards(f) << " shards x " << spec_ops() << " ops, seed "
       << f.campaign_seed << ", jobs " << f.jobs;
    return os.str();
  }

  int run() override {
    const FleetOptions& f = fleet_options();
    CampaignSpec spec;
    spec.kind = kind_;
    spec.seed = f.campaign_seed;
    spec.shards = spec_shards(f);
    spec.jobs = f.jobs;
    spec.ops_per_shard = spec_ops();
    spec.diff.op_count = spec_ops();
    // SMP campaigns need a multi-hart machine; --harts can widen further.
    spec.nharts = kind_ == CampaignKind::kSmp ? std::max(2u, f.harts) : f.harts;

    const CampaignResult r = harness::run_campaign(spec);

    std::printf("%-8s %-20s %12s %s\n", "shard", "seed", "ops", "result");
    for (const auto& s : r.shards) {
      std::printf("%-8llu %-20llu %12llu %s\n",
                  static_cast<unsigned long long>(s.shard),
                  static_cast<unsigned long long>(s.seed),
                  static_cast<unsigned long long>(s.ops_executed),
                  s.failed ? s.failure.c_str() : "ok");
    }
    std::printf("\n%llu/%llu shards failed",
                static_cast<unsigned long long>(r.failures),
                static_cast<unsigned long long>(spec.shards));
    if (kind_ != CampaignKind::kDiff) {
      std::printf("; boot amortization %.1fx (boot %.3fs, forks %.3fs total)",
                  r.timing.boot_amortization(spec.shards),
                  r.timing.boot_seconds, r.timing.fork_seconds_total);
    }
    std::printf("\n");
    return r.failures == 0 ? 0 : 1;
  }

 private:
  u64 spec_shards(const FleetOptions& f) const {
    return smoke_mode() ? std::max<u64>(2, f.shards / 4) : f.shards;
  }
  u64 spec_ops() const { return scaled(256, 64); }

  CampaignKind kind_;
};

}  // namespace

void register_campaign_workloads(WorkloadRegistry& reg) {
  reg.add("campaign_proto",
          [] { return std::make_unique<CampaignWorkload>(CampaignKind::kProto); });
  reg.add("campaign_diff",
          [] { return std::make_unique<CampaignWorkload>(CampaignKind::kDiff); });
  reg.add("campaign_attack",
          [] { return std::make_unique<CampaignWorkload>(CampaignKind::kAttack); });
  reg.add("campaign_smp",
          [] { return std::make_unique<CampaignWorkload>(CampaignKind::kSmp); });
}

}  // namespace ptstore::workloads
