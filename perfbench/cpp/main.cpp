// Host-speed benchmark: command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--git-sha SHA]
//   perfbench --list-metrics
//   perfbench --op-mix          (kernel_churn's op weights, measured)
//
// Repeats set-up + measured passes of one workload while the next pass fits
// in S seconds (at least one pass is timed), checks every output, and
// prints as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 alternates untraced and traced passes and
// reports the per-layer metrics (spans go to --trace-out as a Chrome trace).
#include <algorithm>
#include <cstdio>
#include <ctime>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

/// setup_s is the median of at least kMinSetups set-up samples; cheap
/// set-ups are sampled until kSetupBudgetS seconds (at most kMaxSetups
/// samples). A sample times a batch of back-to-back set-ups lasting about
/// kSetupBatchS, so the clock reads do not dominate a sub-microsecond one.
constexpr size_t kMinSetups = 5;
constexpr size_t kMaxSetups = 200;
constexpr double kSetupBudgetS = 0.5;
constexpr double kSetupBatchS = 1e-3;

struct Options {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  std::string git_sha = "unknown";
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--git-sha SHA]\n"
               "       perfbench --list-metrics\n"
               "       perfbench --op-mix\n"
               "workloads:");
  for (const std::string& w : workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

void list_metrics() {
  auto dump = [](const char* key, const std::vector<MetricSpec>& specs, bool last) {
    std::printf("  \"%s\": [\n", key);
    for (size_t i = 0; i < specs.size(); ++i) {
      std::printf("    {\"name\": \"%s\", \"unit\": \"%s\", \"better\": \"%s\"}%s\n",
                  specs[i].name.c_str(), specs[i].unit.c_str(), specs[i].better.c_str(),
                  i + 1 < specs.size() ? "," : "");
    }
    std::printf("  ]%s\n", last ? "" : ",");
  };
  std::printf("{\n");
  dump("end_to_end", end_to_end_metrics(), false);
  dump("per_layer", per_layer_metrics(), true);
  std::printf("}\n");
}

/// Host CPU seconds used by this process (all threads).
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Peak resident size of this program (VmHWM). getrusage's ru_maxrss is not
/// used: it keeps the launching process's peak across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Sanitizer the compiler instrumented this build with ("OFF" for none).
const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "OFF";
#endif
}

void print_provenance(const Options& o) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = sanitizer();
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  const bool sanitized = sanitize != "OFF";
  std::printf(
      "provenance: {\"git_sha\": \"%s\", \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"sanitize\": \"%s\", \"nproc\": %u, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %d, \"comparable\": %s}\n",
      json_escape(o.git_sha).c_str(), PERFBENCH_COMPILER, build_type.c_str(),
      sanitize.c_str(), std::thread::hardware_concurrency(), o.workload.c_str(),
      static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0,
      optimized && !sanitized ? "true" : "false");
  if (!optimized || sanitized) {
    std::fprintf(stderr,
                 "perfbench: WARNING: %s build%s -- host times are not comparable with "
                 "an optimized build\n",
                 optimized ? build_type.c_str() : "unoptimized",
                 sanitized ? " with sanitizers" : "");
  }
}

void print_result(bool correct, u64 attempted, u64 failed, const Metrics& m) {
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const Metric& x : m.list()) {
    std::snprintf(buf, sizeof buf, "%.17g", x.value);
    json += (first ? "" : ", ") + ("\"" + x.name + "\": {\"value\": " + buf +
                                   ", \"unit\": \"" + x.unit + "\"}");
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int run(const Options& o) {
  std::unique_ptr<Workload> wl = make_workload(o.workload, o.seed);
  if (!wl) return usage();
  print_provenance(o);

  SpanLog log;
  std::vector<double> setup_s, untraced_wall, traced_wall, work_rate;
  std::map<std::string, std::vector<double>> rates;
  u64 attempted = 0;
  u64 failed = 0;
  std::optional<std::pair<u64, u64>> reference;  // sim_cycles, digest of pass 0.
  // Peak RSS after the first pass: later passes add allocator-reuse noise.
  double first_pass_rss_mb = 0;
  unsigned traced = 0;

  const u64 start = now_ns();
  for (unsigned i = 0;; ++i) {
    const bool trace_pass = o.trace && i % 2 == 1;
    const u64 t = now_ns();
    wl->setup();
    setup_s.push_back(seconds_since(t));
    log.set_enabled(trace_pass);
    const double cpu0 = cpu_seconds();
    PassOutcome out = wl->measure(log);
    const double cpu_s = cpu_seconds() - cpu0;
    log.set_enabled(false);

    ++out.attempted;  // Determinism: every pass of one seed simulates the same.
    if (!reference) {
      reference.emplace(out.sim_cycles, out.digest);
      first_pass_rss_mb = peak_rss_mb();
    } else if (reference->first != out.sim_cycles || reference->second != out.digest) {
      out.fail("pass " + std::to_string(i) + " is not deterministic: sim_cycles " +
               std::to_string(out.sim_cycles) + " vs " + std::to_string(reference->first));
    }
    attempted += out.attempted;
    failed += out.failed;
    for (const std::string& f : out.failures) std::fprintf(stderr, "FAILED: %s\n", f.c_str());

    std::printf("pass %u: %s setup %.4f s, measured %.4f s (cpu %.4f s), work %.0f, "
                "sim_cycles %llu, counter digest %016llx, peak rss %.1f MB\n",
                i, trace_pass ? "traced" : (out.timed ? "timed" : "checking"), setup_s.back(),
                out.wall_s, cpu_s, out.work, static_cast<unsigned long long>(out.sim_cycles),
                static_cast<unsigned long long>(out.digest), peak_rss_mb());
    if (trace_pass) {
      ++traced;
      traced_wall.push_back(out.wall_s);
    } else if (out.timed) {
      untraced_wall.push_back(out.wall_s);
      work_rate.push_back(out.work / out.wall_s);
      for (const auto& [k, v] : out.rates) rates[k].push_back(v);
    }
    // Stop before a pass that would end after --seconds (at least one
    // timed pass, and one traced pass when tracing).
    const bool enough = !untraced_wall.empty() && (!o.trace || traced > 0);
    if (enough && seconds_since(start) + seconds_since(t) > o.seconds) break;
  }
  const u64 t_one = now_ns();
  wl->setup();  // A warm set-up sizes the batch.
  setup_s.push_back(seconds_since(t_one));
  double setup_total = 0;
  for (const double s : setup_s) setup_total += s;
  const size_t batch =
      std::clamp<size_t>(static_cast<size_t>(kSetupBatchS / setup_s.back()), 1, 100'000);
  while (setup_s.size() < kMinSetups ||
         (setup_total < kSetupBudgetS && setup_s.size() < kMaxSetups)) {
    const u64 t = now_ns();
    for (size_t k = 0; k < batch; ++k) wl->setup();
    const double s = seconds_since(t);
    setup_s.push_back(s / static_cast<double>(batch));
    setup_total += s;
  }

  Metrics m;
  if (!o.trace) {
    m.add("setup_s", median(setup_s), "s");
    // The fastest timed pass. Every pass does the same deterministic work,
    // so slower passes only measure other tenants' load on the host.
    m.add("wall_s", *std::min_element(untraced_wall.begin(), untraced_wall.end()), "s");
    m.add("work_per_s", *std::max_element(work_rate.begin(), work_rate.end()), "1/s");
    m.add("peak_rss_mb", first_pass_rss_mb, "MB");
    m.add("sim_cycles", static_cast<double>(reference->first), "cycles");
  } else {
    Metrics layer;
    for (const auto& [k, v] : rates) layer.add(k, median(v), "");
    layer.ratio("failed_frac", static_cast<double>(failed), static_cast<double>(attempted),
                "count");
    const double untraced_med = median(untraced_wall);
    const double traced_med = median(traced_wall);
    layer.add("trace.overhead_pct", (traced_med / untraced_med - 1) * 100, "%");
    const SpanLog::Totals* pass = log.find("pass");
    double traced_sum = 0;
    for (const double w : traced_wall) traced_sum += w;
    layer.add("trace.pass_s", traced_sum / traced, "s");
    layer.add("trace.self_s", pass != nullptr ? pass->self_ns() * 1e-9 / traced : 0, "s");
    wl->layer_metrics(layer, log, traced);
    // Every catalogued metric, in catalog order; layers this workload never
    // calls report 0.
    for (const MetricSpec& spec : per_layer_metrics()) {
      const Metric* x = layer.find(spec.name);
      m.add(spec.name, x != nullptr ? x->value : 0, spec.unit);
    }
    for (const Metric& x : layer.list()) {
      if (m.find(x.name) == nullptr) {
        std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n", x.name.c_str());
        ++failed;
      }
    }
    if (!o.trace_out.empty() && !log.write_chrome_trace(o.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_out.c_str());
    }
  }
  for (const Metric& x : m.list()) {
    std::printf("  %-36s %20.6f %s\n", x.name.c_str(), x.value, x.unit.c_str());
  }
  print_result(failed == 0, attempted, failed, m);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    } else if (a == "--op-mix") {
      return print_op_mix();
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::string(argv[++i]) != "0";
    } else if (a == "--trace-out" && has_value) {
      o.trace_out = argv[++i];
    } else if (a == "--git-sha" && has_value) {
      o.git_sha = argv[++i];
    } else {
      return usage();
    }
  }
  if (!have_workload) return usage();
  try {
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    Metrics none;
    print_result(false, 1, 1, none);
    return 1;
  }
}
