#include "workloads/runner.h"

#include <chrono>
#include <cstdlib>
#include <fstream>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace ptstore::workloads {

// Defined in figures.cpp / campaigns.cpp. Called from the registry accessor
// so those workloads are linked and registered even though no bench
// references their symbols directly (static initializers in an unreferenced
// archive member would be dropped).
void register_figure_workloads(WorkloadRegistry& reg);
void register_campaign_workloads(WorkloadRegistry& reg);

namespace {

u64 g_instructions = 0;
u64 g_abstract_instructions = 0;  // The retire_abstract() share of it.

FleetOptions g_fleet;

std::optional<BackendKind> g_backend;

bool env_is(const char* name, char value) {
  const char* e = std::getenv(name);
  return e != nullptr && e[0] == value;
}

/// Process-wide report collector (see collect_report() in runner.h).
struct Collector {
  bool enabled = false;
  int focus_rank = -1;  ///< -1 until the first run is captured.
  std::map<std::string, u64> counters;
  std::map<Sys, Histogram> latency;
  std::vector<Measurement> rows;
  std::vector<std::pair<std::string, std::string>> extra_config;
};

Collector g_collector;

/// Higher rank = better representative of "the PTStore machine under test".
int config_rank(const char* label, const SystemConfig& cfg) {
  if (std::string_view(label) == "cfi_ptstore") return 2;
  return cfg.kernel.ptstore ? 1 : 0;
}

void capture_run(const char* label, System& s) {
  const int rank = config_rank(label, s.config());
  if (rank < g_collector.focus_rank) return;
  if (rank > g_collector.focus_rank) {
    g_collector.focus_rank = rank;
    g_collector.counters.clear();
    g_collector.latency.clear();
  }
  // Latest counter snapshot wins; latency distributions accumulate so a
  // bench that builds many same-rank machines reports over all of them.
  g_collector.counters = s.report().counters();
  for (const auto& [sys, hist] : s.kernel().syscall_latency()) {
    g_collector.latency[sys].merge(hist);
  }
}

}  // namespace

bool smoke_mode() { return env_is("PTSTORE_SMOKE", '1'); }

bool decode_cache_enabled() { return !env_is("PTSTORE_BBCACHE", '0'); }

u64 instructions_simulated() { return g_instructions; }

const FleetOptions& fleet_options() { return g_fleet; }

void set_fleet_options(const FleetOptions& opts) { g_fleet = opts; }

std::optional<BackendKind> backend_override() { return g_backend; }

void set_backend_override(std::optional<BackendKind> k) { g_backend = k; }

Cycles run_on(SystemConfig cfg, const WorkloadFn& fn, const char* config_label) {
  cfg.core.decode_cache = decode_cache_enabled();
  // Only touched when --harts asked for an SMP machine: the workloads run
  // on hart 0 either way, but secondary harts change boot work and L2
  // sharing, which is exactly what the 1-vs-2-hart bench columns measure.
  if (g_fleet.harts > 1) cfg.nharts = g_fleet.harts;
  // Retarget only the defended configuration at the requested backend: the
  // base/cfi reference machines must stay undefended for the overhead
  // columns to mean anything.
  if (g_backend && cfg.kernel.ptstore) apply_backend(cfg, *g_backend);
  auto sys = System::create(cfg);
  if (!sys) {
    std::fprintf(stderr, "bench configuration rejected: %s\n",
                 sys.error().c_str());
    std::abort();
  }
  System& s = *sys.value();
  if (g_collector.enabled) s.kernel().enable_latency_collection(true);
  const Cycles before = s.cycles();
  const u64 instret_before = s.core().instret();
  const u64 abstract_before = s.core().abstract_retired();
  // Boot-time events stay outside the session: attribution covers exactly
  // the measured interval, so the profile total matches the cycle delta.
  telemetry::EventRing* tr = telemetry::tracing();
  telemetry::Profiler* pf = telemetry::profiling();
  if (tr != nullptr) tr->session_begin(before);
  if (pf != nullptr) {
    pf->session_begin(config_label[0] != '\0' ? config_label : "run", before,
                      static_cast<u8>(s.core().priv()));
  }
  fn(s);
  if (pf != nullptr) pf->session_end(s.cycles());
  if (tr != nullptr) tr->session_end(s.cycles());
  g_instructions += s.core().instret() - instret_before;
  g_abstract_instructions += s.core().abstract_retired() - abstract_before;
  if (g_collector.enabled) capture_run(config_label, s);
  return s.cycles() - before;
}

Measurement measure(const std::string& name, u64 dram_size, const WorkloadFn& fn,
                    bool include_noadj) {
  Measurement m;
  m.name = name;

  auto run_one = [&](SystemConfig cfg, const char* label) {
    cfg.dram_size = dram_size;
    return run_on(cfg, fn, label);
  };

  m.base = run_one(SystemConfig::baseline(), "base");
  m.cfi = run_one(SystemConfig::cfi(), "cfi");
  m.cfi_ptstore = run_one(SystemConfig::cfi_ptstore(), "cfi_ptstore");
  if (include_noadj) {
    SystemConfig cfg = SystemConfig::cfi_ptstore_noadj();
    cfg.kernel.secure_region_init = std::min<u64>(GiB(1), dram_size / 2);
    m.cfi_ptstore_noadj = run_one(cfg, "cfi_ptstore_noadj");
  }
  return m;
}

u64 scaled(u64 paper_count, u64 def) {
  if (smoke_mode()) return std::max<u64>(1, def / 16);
  if (env_is("PTSTORE_FULL", '1')) return paper_count;
  return def;
}

int MatrixWorkload::run() {
  row_header();
  std::vector<Measurement> rows;
  for (const MatrixCase& c : cases()) {
    rows.push_back(measure(c.name, c.dram_size, c.fn, c.include_noadj));
    print_row(rows.back());
    if (g_collector.enabled) g_collector.rows.push_back(rows.back());
  }
  return check(rows);
}

void collect_report(bool on) {
  g_collector = Collector{};
  g_collector.enabled = on;
}

void report_add_row(const Measurement& m) {
  if (g_collector.enabled) g_collector.rows.push_back(m);
}

void report_add_config(const std::string& key, const std::string& value) {
  if (g_collector.enabled) g_collector.extra_config.emplace_back(key, value);
}

telemetry::BenchReport build_report(const std::string& workload) {
  telemetry::BenchReport rep;
  rep.workload = workload;
  rep.config.emplace_back("smoke", smoke_mode() ? "1" : "0");
  rep.config.emplace_back("decode_cache", decode_cache_enabled() ? "on" : "off");
  rep.config.emplace_back("scale", smoke_mode() ? "smoke"
                          : env_is("PTSTORE_FULL", '1') ? "paper"
                                                        : "default");
  if (g_backend) rep.config.emplace_back("backend", to_string(*g_backend));
  // Conditional like "backend": absent at the 1-hart default so historical
  // reports stay byte-identical.
  if (g_fleet.harts > 1)
    rep.config.emplace_back("harts", std::to_string(g_fleet.harts));
  for (const auto& kv : g_collector.extra_config) rep.config.push_back(kv);
  for (const Measurement& m : g_collector.rows) {
    telemetry::BenchReport::Row row;
    row.name = m.name;
    row.base_cycles = m.base;
    row.cfi_cycles = m.cfi;
    row.cfi_ptstore_cycles = m.cfi_ptstore;
    row.cfi_ptstore_noadj_cycles = m.cfi_ptstore_noadj;
    row.cfi_pct = m.cfi_pct();
    row.cfi_ptstore_pct = m.cfi_ptstore_pct();
    row.ptstore_only_pct = m.ptstore_only_pct();
    rep.measurements.push_back(std::move(row));
  }
  rep.counters = g_collector.counters;
  // Truncated traces/profiles are self-announcing: when the observers are
  // active, their loss counters ride along in the report.
  if (telemetry::EventRing* tr = telemetry::tracing()) {
    telemetry::MetricsRegistry::instance().intern(
        "telemetry.trace_dropped",
        "trace events lost to EventRing capacity (0 = complete trace)",
        "events");
    rep.counters["telemetry.trace_dropped"] = tr->dropped();
  }
  if (telemetry::Profiler* pf = telemetry::profiling()) {
    telemetry::MetricsRegistry::instance().intern(
        "telemetry.profile_truncated",
        "profile frames dropped at the shadow-stack depth cap", "frames");
    rep.counters["telemetry.profile_truncated"] = pf->truncated_frames();
  }
  for (const auto& [sys, hist] : g_collector.latency) {
    telemetry::HistogramSummary s;
    s.count = hist.count();
    s.mean = hist.mean();
    s.min = hist.min();
    s.max = hist.max();
    s.p50 = hist.percentile(50);
    s.p90 = hist.percentile(90);
    s.p99 = hist.percentile(99);
    rep.histograms[std::string("syscall.") + to_string(sys)] = s;
  }
  return rep;
}

WorkloadRegistry& WorkloadRegistry::instance() {
  static WorkloadRegistry reg = [] {
    WorkloadRegistry r;
    register_figure_workloads(r);
    register_campaign_workloads(r);
    return r;
  }();
  return reg;
}

void WorkloadRegistry::add(const std::string& name, WorkloadFactory factory) {
  factories_[name] = std::move(factory);
}

std::unique_ptr<Workload> WorkloadRegistry::make(const std::string& name) const {
  const auto it = factories_.find(name);
  return it == factories_.end() ? nullptr : it->second();
}

std::vector<std::string> WorkloadRegistry::names() const {
  std::vector<std::string> out;
  for (const auto& [name, _] : factories_) out.push_back(name);
  return out;
}

int run_workload_main_with(std::unique_ptr<Workload> w, int argc, char** argv) {
  std::string json_path;
  std::string trace_path;
  std::string profile_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      setenv("PTSTORE_SMOKE", "1", 1);
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      profile_path = argv[++i];
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_path = arg.substr(10);
    } else if (arg == "--jobs" && i + 1 < argc) {
      g_fleet.jobs = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
    } else if (arg == "--shards" && i + 1 < argc) {
      g_fleet.shards = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--campaign-seed" && i + 1 < argc) {
      g_fleet.campaign_seed = std::strtoull(argv[++i], nullptr, 0);
    } else if (arg == "--harts" && i + 1 < argc) {
      g_fleet.harts = static_cast<unsigned>(std::strtoul(argv[++i], nullptr, 0));
      if (g_fleet.harts < 1 || g_fleet.harts > 8) {
        std::fprintf(stderr, "--harts must be 1..8\n");
        return 2;
      }
    } else if (arg == "--backend" && i + 1 < argc) {
      const auto kind = backend_kind_from(argv[++i]);
      if (!kind) {
        std::fprintf(stderr, "unknown backend '%s' (stock|ptstore|dpti|ptauth)\n",
                     argv[i]);
        return 2;
      }
      set_backend_override(*kind);
    } else if (arg.rfind("--backend=", 0) == 0) {
      const auto kind = backend_kind_from(arg.substr(10));
      if (!kind) {
        std::fprintf(stderr, "unknown backend '%s' (stock|ptstore|dpti|ptauth)\n",
                     arg.substr(10).c_str());
        return 2;
      }
      set_backend_override(*kind);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json <path>] [--trace <path>] "
                   "[--profile <path>] [--jobs N] [--shards N] "
                   "[--campaign-seed N] [--harts N] [--backend NAME]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!json_path.empty()) collect_report(true);
  if (!trace_path.empty()) telemetry::enable_tracing();
  if (!profile_path.empty()) telemetry::enable_profiling();

  header(w->title());
  const auto t0 = std::chrono::steady_clock::now();
  const int rc = w->run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  // Abstract charges cost the host next to nothing, so the rate counts
  // only the instructions the interpreter actually ran.
  const double minst = static_cast<double>(instructions_simulated()) / 1e6;
  const double abstract_minst = static_cast<double>(g_abstract_instructions) / 1e6;
  const double interp_minst = minst - abstract_minst;
  std::printf("\n[%s] wall %.2f s, %.1f Minst simulated (%.1f abstract + %.2f "
              "interpreted), %.2f interpreted Minst/s, decode cache %s%s\n",
              w->name().c_str(), secs, minst, abstract_minst, interp_minst,
              secs > 0 ? interp_minst / secs : 0.0,
              decode_cache_enabled() ? "on" : "off",
              smoke_mode() ? ", smoke scale" : "");

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    telemetry::write_bench_report(os, build_report(w->name()));
    std::printf("[%s] JSON report -> %s\n", w->name().c_str(),
                json_path.c_str());
    collect_report(false);
  }
  if (!trace_path.empty()) {
    std::ofstream os(trace_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", trace_path.c_str());
      return 2;
    }
    telemetry::write_chrome_trace(os, *telemetry::tracing());
    std::printf("[%s] Chrome trace -> %s\n", w->name().c_str(),
                trace_path.c_str());
    telemetry::disable_tracing();
  }
  if (!profile_path.empty()) {
    std::ofstream os(profile_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", profile_path.c_str());
      return 2;
    }
    telemetry::write_profile_json(os, telemetry::profiling()->snapshot());
    std::printf("[%s] call-stack profile -> %s (render: ptprof flame %s)\n",
                w->name().c_str(), profile_path.c_str(), profile_path.c_str());
    telemetry::disable_profiling();
  }

  // Smoke runs exist to prove the bench builds and executes (briefly, e.g.
  // under sanitizers); at 1/16 scale the shape checks are noise.
  return smoke_mode() ? 0 : rc;
}

int run_workload_main(const std::string& name, int argc, char** argv) {
  std::unique_ptr<Workload> w = WorkloadRegistry::instance().make(name);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; registered:", name.c_str());
    for (const std::string& n : WorkloadRegistry::instance().names()) {
      std::fprintf(stderr, " %s", n.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  return run_workload_main_with(std::move(w), argc, argv);
}

}  // namespace ptstore::workloads
