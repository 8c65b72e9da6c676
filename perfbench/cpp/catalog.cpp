// Workload registry, metric catalog and small shared helpers.
#include "workloads.h"

namespace perfbench {

void PassOutcome::fail(const std::string& what) {
  ++failed;
  if (failures.size() < 10) failures.push_back(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"guest_compute", "kernel_churn", "verify"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed) {
  if (name == "guest_compute") return make_guest_compute(seed);
  if (name == "kernel_churn") return make_kernel_churn(seed);
  if (name == "verify") return make_verify(seed);
  return nullptr;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},
      {"wall_s", "s", "lower"},
      {"work_per_s", "1/s", "higher"},
      {"peak_rss_mb", "MB", "lower"},
      {"sim_cycles", "cycles", "lower"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> v = {
        {"guest_mips", "MIPS", "higher"},
        {"kernel_ops_per_s", "1/s", "higher"},
        {"ptmc_states_per_s", "1/s", "higher"},
        {"campaign_shards_per_s", "1/s", "higher"},
        {"failed_frac", "ratio", "lower"},
        {"failed_frac.base", "count", "higher"},
        {"trace.overhead_pct", "%", "lower"},
        {"trace.pass_s", "s", "lower"},
        {"trace.self_s", "s", "lower"},
        {"cpu.guest_insts", "count", "higher"},
        {"cpu.busy_s", "s", "lower"},
        {"cpu.ns_per_inst", "ns", "lower"},
        {"cpu.bbcache_hit_ratio", "ratio", "higher"},
        {"cpu.bbcache_hit_ratio.base", "count", "higher"},
        {"cpu.itlb_hit_ratio", "ratio", "higher"},
        {"cpu.itlb_hit_ratio.base", "count", "higher"},
        {"cpu.l1i_miss_ratio", "ratio", "lower"},
        {"cpu.l1i_miss_ratio.base", "count", "higher"},
        {"mmu.walks", "count", "lower"},
        {"mmu.walks_per_kinst", "ratio", "lower"},
        {"mmu.walks_per_kinst.base", "kinst", "higher"},
        {"cache.dtlb_miss_ratio", "ratio", "lower"},
        {"cache.dtlb_miss_ratio.base", "count", "higher"},
        {"cache.l1d_miss_ratio", "ratio", "lower"},
        {"cache.l1d_miss_ratio.base", "count", "higher"},
    };
    for (unsigned op = 0; op < kChurnOpKinds; ++op) {
      const std::string k =
          std::string("kernel.") + to_string(static_cast<ChurnOp::Kind>(op));
      v.push_back({k + ".count", "count", "higher"});
      v.push_back({k + ".busy_s", "s", "lower"});
      v.push_back({k + ".p50_ns", "ns", "lower"});
      v.push_back({k + ".p99_ns", "ns", "lower"});
      v.push_back({k + ".failed", "count", "lower"});
    }
    v.push_back({"kernel.busy_s", "s", "lower"});
    v.push_back({"kernel.grow.count", "count", "lower"});
    v.push_back({"kernel.shootdown.count", "count", "lower"});
    v.push_back({"kernel.shootdown.busy_s", "s", "lower"});
    for (const char* b : kBackends) {
      const std::string k = std::string("backend.") + b;
      v.push_back({k + ".busy_s", "s", "lower"});
      v.push_back({k + ".kernel_ops_per_s", "1/s", "higher"});
      v.push_back({k + ".sim_cycles", "cycles", "lower"});
    }
    const std::vector<MetricSpec> tail = {
        {"system.create.p50_ns", "ns", "lower"},
        {"system.checkpoint.p50_ns", "ns", "lower"},
        {"system.fork.p50_ns", "ns", "lower"},
        {"harness.campaign.busy_s", "s", "lower"},
        {"harness.campaign.ops_per_s", "1/s", "higher"},
        {"harness.boot_s", "s", "lower"},
        {"harness.fork_s", "s", "lower"},
        {"harness.boot_amortization", "x", "higher"},
        {"ptmc.busy_s", "s", "lower"},
        {"ptmc.states", "count", "higher"},
        {"ptmc.transitions", "count", "higher"},
        {"ptmc.transitions_per_s", "1/s", "higher"},
    };
    v.insert(v.end(), tail.begin(), tail.end());
    return v;
  }();
  return specs;
}

void Digest::add(const std::string& s) {
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 0x100000001b3ULL;
  }
  add(u64{s.size()});
}

void Digest::add(u64 v) {
  for (int b = 0; b < 8; ++b) {
    h_ ^= (v >> (8 * b)) & 0xff;
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(const ptstore::StatSet& stats) {
  for (const auto& [k, v] : stats.counters()) {
    add(k);
    add(v);
  }
}

double p50_ns(const std::vector<u64>& samples) {
  return median(std::vector<double>(samples.begin(), samples.end()));
}

}  // namespace perfbench
