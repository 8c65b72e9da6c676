// Shared workload infrastructure: the four evaluation configurations of the
// paper, periodic-timer accounting, overhead arithmetic, and the Workload
// interface + registry behind every bench binary.
//
// A bench executable is one of:
//   int main(int argc, char** argv) {
//     return ptstore::workloads::run_workload_main("spec", argc, argv);
//   }
// for the figure-reproduction matrix workloads registered in figures.cpp, or
//   return run_workload_main_with(std::make_unique<MyBench>(), argc, argv);
// for freeform benches. The driver owns flag parsing (--smoke, --json,
// --trace), the banner, and the wall-clock / simulated-instruction
// throughput footer.
#pragma once

#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "kernel/system.h"
#include "telemetry/report.h"

namespace ptstore::workloads {

/// Relative overhead in percent of `v` versus `base`.
inline double overhead_pct(Cycles v, Cycles base) {
  return base == 0 ? 0.0
                   : 100.0 * (static_cast<double>(v) - static_cast<double>(base)) /
                         static_cast<double>(base);
}

/// Periodic timer-interrupt model: CPU-bound workloads still enter the
/// kernel on every tick, which is where kernel CFI costs reach them.
struct TickModel {
  Cycles period = 900'000;  ///< 10 ms at the prototype's 90 MHz.
  u64 handler_instrs = 400;
  u64 indirect_calls = 8;
  Cycles last = 0;

  void reset(Kernel& k) { last = k.core().cycles(); }

  /// Charge any ticks that elapsed since the last call.
  void advance(Kernel& k) {
    Core& core = k.core();
    while (core.cycles() - last >= period) {
      last += period;
      k.charge_trap_roundtrip();
      core.retire_abstract(handler_instrs, core.config().timing.base_cpi);
      k.cfi_charge(indirect_calls);
    }
  }
};

/// One measured data point across the paper's configurations.
struct Measurement {
  std::string name;
  Cycles base = 0;          ///< No CFI, no PTStore.
  Cycles cfi = 0;           ///< Clang CFI only.
  Cycles cfi_ptstore = 0;   ///< CFI + PTStore (64 MiB adjustable region).
  Cycles cfi_ptstore_noadj = 0;  ///< Optional -Adj configuration (0 = unused).

  double cfi_pct() const { return overhead_pct(cfi, base); }
  double cfi_ptstore_pct() const { return overhead_pct(cfi_ptstore, base); }
  double ptstore_only_pct() const { return overhead_pct(cfi_ptstore, cfi); }
  double noadj_pct() const { return overhead_pct(cfi_ptstore_noadj, base); }
};

/// A workload body: runs against a booted system and returns nothing; the
/// caller measures the cycle delta.
using WorkloadFn = std::function<void(System&)>;

/// Build a system from `cfg` via System::create (decode cache per
/// PTSTORE_BBCACHE), run `fn`, and return the cycle delta. Config errors
/// print every bad field and abort — a bench with a broken config is a
/// programming error, not a measurement.
///
/// `config_label` names the paper configuration being run ("base", "cfi",
/// "cfi_ptstore", ...); the report collector uses it to pick which machine's
/// counters land in the JSON report. When the profiler is enabled the run
/// is bracketed in a profiler session under that label, so cycle
/// attribution is per-machine; when tracing is, its events get a new
/// session index.
Cycles run_on(SystemConfig cfg, const WorkloadFn& fn,
              const char* config_label = "");

/// Run `fn` on a fresh system per configuration and collect the cycle
/// deltas. When `include_noadj` is set the -Adj configuration runs too.
Measurement measure(const std::string& name, u64 dram_size, const WorkloadFn& fn,
                    bool include_noadj = false);

/// Environment-scalable iteration count: paper scale under PTSTORE_FULL=1,
/// `def` by default, and max(1, def/16) under PTSTORE_SMOKE=1 (the --smoke
/// flag) so sanitizer/CI runs finish quickly.
u64 scaled(u64 paper_count, u64 def);

/// True when PTSTORE_SMOKE=1: benches run at 1/16 scale and the driver
/// ignores shape-check verdicts (tiny scales are noisy), reporting only
/// build/run health.
bool smoke_mode();

/// True unless PTSTORE_BBCACHE=0: systems built by run_on()/measure() use
/// the decoded basic-block cache. The knob exists to A/B host throughput;
/// simulated cycles are bit-identical either way.
bool decode_cache_enabled();

/// Simulated instructions retired inside run_on()/measure() so far in this
/// process — the driver footer's simulated total (abstract + interpreted).
u64 instructions_simulated();

// ---- Fleet / campaign knobs (the --jobs / --shards / --campaign-seed flags) ----

/// Sharding knobs the driver parses for fleet-backed workloads (the campaign
/// benches in campaigns.cpp). Plain benches ignore them.
struct FleetOptions {
  unsigned jobs = 1;      ///< Worker threads; 0 = one per hardware thread.
  u64 shards = 8;         ///< Independent machines in the campaign.
  u64 campaign_seed = 1;  ///< Per-shard seeds derive from this via shard_seed().
  /// Simulated harts per machine (the --harts flag). 1 keeps the historical
  /// single-hart machines; run_on() only touches its SystemConfig when >1,
  /// so default bench reports stay byte-identical.
  unsigned harts = 1;
};

/// The fleet options parsed from the current bench invocation.
const FleetOptions& fleet_options();

/// Override the process-wide fleet options (tests; the driver calls this
/// from flag parsing).
void set_fleet_options(const FleetOptions& opts);

// ---- Backend selection (the --backend= flag) ----

/// The isolation backend the driver was asked to measure, if any. run_on()
/// applies it to every *defended* configuration it builds (base/cfi rows
/// keep their undefended configs, so overhead columns stay comparable).
std::optional<BackendKind> backend_override();

/// Set/clear the process-wide backend override (the driver calls this from
/// --backend=; benches that sweep all backends themselves clear it).
void set_backend_override(std::optional<BackendKind> k);

// ---- Machine-readable reporting (the --json flag and ptprof summary) ----

/// Toggle the process-wide report collector. While on, every run_on():
/// enables per-syscall latency collection on its system, and snapshots the
/// focus machine's System::report() counters and latency histograms. The
/// focus machine is the best-ranked run seen so far: an explicit
/// "cfi_ptstore" label outranks any PTStore-enabled config, which outranks
/// everything else; equal-rank runs merge histograms and keep the latest
/// counter snapshot. MatrixWorkload additionally captures its measured rows.
/// Turning collection on resets previously collected state.
void collect_report(bool on);

/// Append a measured row to the report collector directly (no-op while
/// collection is off). For benches that build Measurements by hand instead
/// of through MatrixWorkload — e.g. the per-backend overhead experiment.
void report_add_row(const Measurement& m);

/// Attach an extra config key/value to the collected report (no-op while
/// collection is off). Experiment-level facts like attack outcomes land
/// here as "attack.<scenario>.<backend>" entries.
void report_add_config(const std::string& key, const std::string& value);

/// The data accumulated since collect_report(true), flattened into the
/// versioned BenchReport schema. `workload` fills the report's workload
/// field; standard config rows (smoke/decode_cache/scale) are included.
telemetry::BenchReport build_report(const std::string& workload);

// ---- Output formatting (shared by every bench binary) ----

inline void header(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

inline void row_header() {
  std::printf("%-18s %10s %14s %14s %12s\n", "benchmark", "CFI %", "CFI+PTStore %",
              "PTStore-only %", "base cycles");
}

inline void print_row(const Measurement& m) {
  std::printf("%-18s %10.2f %14.2f %14.2f %12llu\n", m.name.c_str(), m.cfi_pct(),
              m.cfi_ptstore_pct(), m.ptstore_only_pct(),
              static_cast<unsigned long long>(m.base));
}

// ---- The Workload interface ----

/// One bench: a name for the registry, a banner title, and a body whose
/// return value is the process exit code (shape-check verdict).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string name() const = 0;
  /// Banner text; may embed runtime scale (called after flag parsing).
  virtual std::string title() const = 0;
  virtual int run() = 0;
};

/// One row of a configuration-matrix workload.
struct MatrixCase {
  std::string name;
  u64 dram_size = MiB(512);
  WorkloadFn fn;
  bool include_noadj = false;
};

/// A workload that is a list of measure() rows printed in the standard
/// table format, followed by a shape check over the collected rows. This is
/// the common driver loop the figure benches (Fig. 4-7, §V-D1) share.
class MatrixWorkload : public Workload {
 public:
  int run() final;

 protected:
  virtual std::vector<MatrixCase> cases() = 0;
  /// Shape check + workload-specific footer over the measured rows, in
  /// cases() order. Return 0 when the paper's bounds hold.
  virtual int check(const std::vector<Measurement>& rows) = 0;
};

using WorkloadFactory = std::function<std::unique_ptr<Workload>()>;

/// Name -> factory map for the registered workloads (figures.cpp).
class WorkloadRegistry {
 public:
  static WorkloadRegistry& instance();
  void add(const std::string& name, WorkloadFactory factory);
  /// nullptr when `name` is unknown.
  std::unique_ptr<Workload> make(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  std::map<std::string, WorkloadFactory> factories_;
};

/// Driver for a directly constructed workload: parse flags (--smoke sets
/// PTSTORE_SMOKE=1, --json <path> writes the machine-readable BenchReport,
/// --trace <path> writes a Chrome trace_event dump of the run, --jobs /
/// --shards / --campaign-seed fill fleet_options() for fleet-backed
/// workloads), print the banner, run, print the wall-clock +
/// simulated-throughput footer. Smoke runs always exit 0.
int run_workload_main_with(std::unique_ptr<Workload> w, int argc, char** argv);

/// Same driver for a registry-backed workload looked up by name.
int run_workload_main(const std::string& name, int argc, char** argv);

}  // namespace ptstore::workloads
