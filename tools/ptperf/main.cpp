// ptperf: run a registered workload under the telemetry layer and report
// where the simulated cycles went.
//
//   ptperf --list                       # registered workloads
//   ptperf [--smoke] [--top N] [--json <path>] [--trace <path>] [workload]
//
// Output: the workload's own table, the top-N machine counters from the
// focus configuration (cfi_ptstore), and the cycle-attribution profile —
// self-cycles per subsystem and per privilege, each summing exactly to the
// cycles of the bracketed sessions. --json writes the same BenchReport the
// bench drivers emit under --json; --trace writes a Chrome trace_event dump
// viewable in chrome://tracing or ui.perfetto.dev.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/args.h"
#include "telemetry/report.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"
#include "workloads/runner.h"

namespace {

using namespace ptstore;
using namespace ptstore::workloads;

int usage(const char* argv0, int rc) {
  std::fprintf(stderr,
               "usage: %s [--smoke] [--top N] [--json <path>] [--trace <path>] "
               "[workload]\n       %s --list\n",
               argv0, argv0);
  return rc;
}

void print_top_counters(const telemetry::BenchReport& rep, size_t top_n) {
  const std::vector<std::pair<std::string, u64>> rows =
      telemetry::top_counters(rep, top_n);
  std::printf("\ntop %zu counters (cfi_ptstore configuration):\n", rows.size());
  for (const auto& [name, value] : rows) {
    std::printf("  %-32s %14llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload = "lmbench";
  std::string json_path;
  std::string trace_path;
  size_t top_n = 15;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const std::string& n : WorkloadRegistry::instance().names()) {
        std::printf("%s\n", n.c_str());
      }
      return 0;
    } else if (arg == "--smoke") {
      setenv("PTSTORE_SMOKE", "1", 1);
    } else if (arg == "--top" && i + 1 < argc) {
      const auto v = parse_arg("--top", argv[++i]);
      if (!v) return 2;
      top_n = static_cast<size_t>(*v);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0], arg == "--help" || arg == "-h" ? 0 : 2);
    } else {
      workload = arg;
    }
  }

  std::unique_ptr<Workload> w = WorkloadRegistry::instance().make(workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; try --list\n",
                 workload.c_str());
    return 2;
  }

  // Tracing feeds the attribution table; the collector feeds the counter
  // table and the optional JSON report. Neither perturbs simulated timing.
  telemetry::EventRing& ring = telemetry::enable_tracing();
  collect_report(true);

  header(w->title());
  const int rc = w->run();

  const telemetry::BenchReport rep = build_report(w->name());
  print_top_counters(rep, top_n);
  std::printf("\n%s", telemetry::render_profile(ring.profile()).c_str());
  std::printf("\ntrace: %llu events emitted, %llu beyond ring capacity, "
              "%u sessions\n",
              static_cast<unsigned long long>(ring.total_emitted()),
              static_cast<unsigned long long>(ring.dropped()), ring.sessions());

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    telemetry::write_bench_report(os, rep);
    std::printf("JSON report -> %s\n", json_path.c_str());
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      return 2;
    }
    telemetry::write_chrome_trace(os, ring);
    std::printf("Chrome trace -> %s\n", trace_path.c_str());
  }
  return smoke_mode() ? 0 : rc;
}
