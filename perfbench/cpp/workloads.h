// The benchmark's workloads and the metric catalog they report into.
//
// A run repeats passes of one workload. Each pass is a set-up (generate the
// inputs from the seed, build and boot the machines) followed by a measured
// phase over the same fixed amount of work, so every pass of one seed must
// produce the same simulated cycles and the same counter digest.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.h"
#include "gen.h"
#include "spans.h"

namespace perfbench {

/// What one measured phase produced.
struct PassOutcome {
  double wall_s = 0;        ///< Host seconds of the measured phase.
  double work = 0;          ///< Workload operations completed (see work_per_s).
  u64 sim_cycles = 0;       ///< Simulated cycles, summed over machines.
  u64 digest = 0;           ///< FNV-1a over every machine's counters.
  u64 attempted = 0;        ///< Output checks made.
  u64 failed = 0;           ///< Output checks that failed.
  std::vector<std::string> failures;  ///< First few failure messages.
  /// Throughputs of this pass by per-layer metric name (guest_mips, ...).
  std::map<std::string, double> rates;

  bool timed = true;         ///< False for a pass that also ran extra checks.

  /// Count one output check; record `what` when it failed.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  /// Record a failed check (the caller counted the attempt).
  void fail(const std::string& what);
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build everything the next measure() consumes.
  virtual void setup() = 0;
  /// Run the measured phase on what setup() built. When `log` is enabled,
  /// span every call into a simulator layer and accumulate layer counters.
  virtual PassOutcome measure(SpanLog& log) = 0;
  /// Fill the per-layer metrics from the `traced` passes recorded in `log`.
  virtual void layer_metrics(Metrics& m, const SpanLog& log, unsigned traced) const = 0;
};

std::unique_ptr<Workload> make_guest_compute(u64 seed);
std::unique_ptr<Workload> make_kernel_churn(u64 seed);
std::unique_ptr<Workload> make_verify(u64 seed);

/// Print the kernel-op mix of the repo's figure workloads (--op-mix).
int print_op_mix();

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed);

struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  ///< "higher" or "lower".
};
/// Metrics of an untraced run, reported by every workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Metrics of a traced run; a workload reports 0 for layers it never calls.
const std::vector<MetricSpec>& per_layer_metrics();

inline constexpr const char* kBackends[] = {"stock", "ptstore", "dpti", "ptauth"};

/// FNV-1a accumulator for counter digests.
class Digest {
 public:
  void add(const std::string& s);
  void add(u64 v);
  /// Every counter name and value, in name order.
  void add(const ptstore::StatSet& stats);
  u64 value() const { return h_; }

 private:
  u64 h_ = 0xcbf29ce484222325ULL;
};

/// Nanosecond samples -> p50 (for system.* set-up timings).
double p50_ns(const std::vector<u64>& samples);

}  // namespace perfbench
