// Telemetry end-to-end: tracing and call-stack profiling must be pure
// observers (simulated timing bit-identical on vs off), the cycle
// attribution and its subsystem rollup must sum exactly to the bracketed
// session cycles, the walker's verifier tail must stay in the ptw bucket,
// the Chrome trace must parse with correctly nested spans (trap inside
// syscall, PTW inside trap), the guest shadow stack must symbolize real
// user code, the backend diff must attribute >= 90% of ptauth's overhead to
// named functions, and the --json report path must meet the acceptance bar
// (>= 20 named counters, per-syscall percentiles).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mmu/pte.h"
#include "telemetry/json.h"
#include "telemetry/profile.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"
#include "workloads/runner.h"
#include "workloads/usercode.h"

namespace ptstore::workloads {
namespace {

/// Syscall-heavy body touching every instrumented subsystem: syscalls with
/// trap round trips, fork (switch_mm + token validation), demand paging
/// (page-fault trap wrapping PTW walks), mmap/brk (sd.pt page-table writes).
void busy_body(System& sys) {
  Kernel& k = sys.kernel();
  Process& init = sys.init();
  for (int i = 0; i < 20; ++i) k.syscall(init, Sys::kNull);
  k.syscall(init, Sys::kMmap);
  k.syscall(init, Sys::kBrk);
  k.syscall(init, Sys::kFork);
  k.syscall(init, Sys::kWrite);
  constexpr VirtAddr kVa = kUserSpaceBase + MiB(16);
  k.processes().add_vma(init, kVa, MiB(1), pte::kR | pte::kW);
  k.processes().switch_to(init);
  for (int i = 0; i < 4; ++i) {
    k.user_access(init, kVa + u64(i) * kPageSize, /*write=*/true);
  }
}

class TelemetryTest : public ::testing::Test {
 protected:
  void TearDown() override {
    telemetry::disable_tracing();
    telemetry::disable_profiling();
    collect_report(false);
    set_backend_override(std::nullopt);
  }
};

TEST_F(TelemetryTest, TracingDoesNotPerturbSimulatedTiming) {
  telemetry::disable_tracing();
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  const Cycles off = run_on(cfg, busy_body);
  telemetry::enable_tracing();
  const Cycles on = run_on(cfg, busy_body);
  const Cycles on_again = run_on(cfg, busy_body);
  EXPECT_EQ(off, on) << "tracing perturbed simulated timing";
  EXPECT_EQ(on, on_again) << "tracing made timing nondeterministic";
}

TEST_F(TelemetryTest, ProfilingDoesNotPerturbSimulatedTiming) {
  // The PR's gate: the call-stack profiler is a pure observer. Same body,
  // profiler off / on / on together with tracing — bit-identical cycles.
  telemetry::disable_tracing();
  telemetry::disable_profiling();
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  const Cycles off = run_on(cfg, busy_body);

  telemetry::enable_profiling();
  const Cycles on = run_on(cfg, busy_body);

  telemetry::enable_tracing();
  telemetry::enable_profiling();
  const Cycles both = run_on(cfg, busy_body);

  EXPECT_EQ(off, on) << "profiling perturbed simulated timing";
  EXPECT_EQ(off, both) << "profiling+tracing perturbed simulated timing";
}

TEST_F(TelemetryTest, ProfilerSelfCyclesSumToSessionTotal) {
  telemetry::enable_profiling();
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  const Cycles measured = run_on(cfg, busy_body, "cfi_ptstore");
  const telemetry::FoldedProfile p = telemetry::profiling()->snapshot();

  EXPECT_EQ(p.total_cycles, measured);
  u64 folded_sum = 0;
  for (const auto& [stack, e] : p.stacks) folded_sum += e.cycles;
  EXPECT_EQ(folded_sum, p.total_cycles)
      << "per-stack self cycles must sum exactly to the session total";
  // The body's hot paths show up as named kernel frames.
  const auto rows = telemetry::function_table(p);
  bool saw_named_kernel_frame = false;
  for (const auto& r : rows) {
    if (!telemetry::is_unattributed_frame(r.name)) saw_named_kernel_frame = true;
  }
  EXPECT_TRUE(saw_named_kernel_frame);
}

TEST_F(TelemetryTest, GuestShadowStackSymbolizesUserCode) {
  telemetry::enable_profiling();
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  run_on(cfg, [](System& sys) {
    UserCompute uc(sys);
    ASSERT_GT(uc.run(sys.init(), 20000), 0u);
  });
  const telemetry::FoldedProfile p = telemetry::profiling()->snapshot();

  // The compute loop is entered by one `jal ra`, so the guest shadow stack
  // must carry a symbolized user_compute frame under the [U] pseudo-root.
  u64 user_compute_cycles = 0;
  for (const auto& [stack, e] : p.stacks) {
    if (stack.find(";[U];user_compute") != std::string::npos) {
      user_compute_cycles += e.cycles;
    }
  }
  EXPECT_GT(user_compute_cycles, 0u)
      << "guest call at retire did not symbolize; profile:\n"
      << telemetry::render_function_table(p, 10);
}

TEST_F(TelemetryTest, BackendDiffAttributionMeetsBar) {
  // The §VI methodology gate at unit scale: run the same body under the
  // stock and ptauth backends, diff the profiles, and require >= 90% of the
  // cycle delta to land in named functions (the mediation markers:
  // ptauth.mac_sign / ptauth.mac_verify / ptw / pt_write_mediate / spans).
  const auto profile_backend = [](BackendKind k) {
    telemetry::enable_profiling();
    SystemConfig cfg = SystemConfig::for_backend(k);
    cfg.dram_size = MiB(256);
    run_on(cfg, busy_body, "be");
    telemetry::FoldedProfile p =
        telemetry::profiling()->snapshot().filter_label("be");
    telemetry::disable_profiling();
    return p;
  };
  const telemetry::FoldedProfile stock = profile_backend(BackendKind::kStock);
  const telemetry::FoldedProfile ptauth = profile_backend(BackendKind::kPtauth);

  const telemetry::ProfileDiff d = telemetry::diff_profiles(stock, ptauth);
  EXPECT_GT(d.total_delta, 0) << "ptauth should cost cycles over stock";
  EXPECT_GE(d.attributed_pct, 90.0)
      << telemetry::render_diff(d, "stock", "ptauth", 20);
}

TEST_F(TelemetryTest, ProfileAttributionSumsToSessionCycles) {
  telemetry::Profiler& prof = telemetry::enable_profiling();
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  const Cycles measured = run_on(cfg, busy_body);
  const telemetry::CycleProfile p = prof.cycle_profile();
  EXPECT_EQ(p.total_cycles, measured);
  EXPECT_EQ(p.attributed(), p.total_cycles);
  u64 priv_sum = 0;
  for (const u64 c : p.priv_cycles) priv_sum += c;
  EXPECT_EQ(priv_sum, p.total_cycles);
  // The body is syscall-dominated; the profile must show it.
  EXPECT_GT(
      p.self_cycles[static_cast<size_t>(telemetry::Subsystem::kSyscall)], 0u);
}

TEST_F(TelemetryTest, WalkVerifierTailRollsUpIntoPtw) {
  // Under PTAuth every fetched PTE is MAC-checked: the walker carves that
  // cost into a "ptw_verify" child, which must stay in the kPtw bucket.
  telemetry::Profiler& prof = telemetry::enable_profiling();
  SystemConfig cfg = SystemConfig::for_backend(BackendKind::kPtauth);
  cfg.dram_size = MiB(256);
  run_on(cfg, busy_body);
  u64 walk_cycles = 0;
  u64 verify_cycles = 0;
  for (const auto& [stack, e] : prof.snapshot().stacks) {
    if (stack.size() > 4 && stack.compare(stack.size() - 4, 4, ";ptw") == 0) {
      walk_cycles += e.cycles;
    }
    if (stack.find(";ptw;ptw_verify") != std::string::npos) {
      verify_cycles += e.cycles;
    }
  }
  ASSERT_GT(verify_cycles, 0u) << "no walk-time verification in the body";
  EXPECT_EQ(prof.cycle_profile()
                .self_cycles[static_cast<size_t>(telemetry::Subsystem::kPtw)],
            walk_cycles + verify_cycles);
}

TEST_F(TelemetryTest, ChromeTraceParsesAndSpansNest) {
  telemetry::EventRing& ring = telemetry::enable_tracing();
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  run_on(cfg, busy_body);
  ASSERT_EQ(ring.dropped(), 0u) << "enlarge the ring for this test";

  const auto doc = telemetry::json_parse(telemetry::chrome_trace_json(ring));
  ASSERT_TRUE(doc.has_value()) << "chrome trace is not valid JSON";
  const telemetry::JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());

  // Replay the measured session's B/E events with a stack: spans must be
  // LIFO, and the taxonomy's containment must show up — a trap round trip
  // inside a syscall span, a page-table walk inside a trap span.
  const double session = static_cast<double>(ring.sessions());
  struct Open {
    std::string cat;
    std::string name;
  };
  std::vector<Open> stack;
  bool trap_in_syscall = false;
  bool ptw_in_trap = false;
  for (const telemetry::JsonValue& ev : events->arr) {
    if (ev.find("pid")->number != session) continue;
    const std::string& ph = ev.find("ph")->str;
    const std::string& cat = ev.find("cat")->str;
    const std::string& name = ev.find("name")->str;
    if (ph == "B") {
      for (const Open& o : stack) {
        if (cat == "trap" && o.cat == "syscall") trap_in_syscall = true;
        if (cat == "ptw" && o.cat == "trap") ptw_in_trap = true;
      }
      stack.push_back(Open{cat, name});
    } else if (ph == "E") {
      ASSERT_FALSE(stack.empty()) << "E without matching B: " << name;
      EXPECT_EQ(stack.back().cat, cat);
      EXPECT_EQ(stack.back().name, name);
      stack.pop_back();
    }
  }
  EXPECT_TRUE(stack.empty()) << "unclosed span: " << stack.back().name;
  EXPECT_TRUE(trap_in_syscall) << "no trap span nested in a syscall span";
  EXPECT_TRUE(ptw_in_trap) << "no PTW span nested in a trap span";
}

TEST_F(TelemetryTest, CollectedReportMeetsAcceptanceBar) {
  class OneCase : public MatrixWorkload {
   public:
    std::string name() const override { return "itest"; }
    std::string title() const override { return "telemetry itest"; }

   protected:
    std::vector<MatrixCase> cases() override {
      return {MatrixCase{"busy", MiB(256), busy_body, false}};
    }
    int check(const std::vector<Measurement>&) override { return 0; }
  };

  collect_report(true);
  OneCase w;
  ASSERT_EQ(w.run(), 0);
  const telemetry::BenchReport rep = build_report(w.name());

  EXPECT_GE(rep.counters.size(), 20u) << "acceptance: >= 20 named counters";
  ASSERT_EQ(rep.measurements.size(), 1u);
  EXPECT_EQ(rep.measurements[0].name, "busy");
  EXPECT_GT(rep.measurements[0].base_cycles, 0u);

  ASSERT_FALSE(rep.histograms.empty()) << "no per-syscall latency collected";
  ASSERT_TRUE(rep.histograms.count("syscall.null"));
  for (const auto& [name, h] : rep.histograms) {
    EXPECT_GT(h.count, 0u) << name;
    EXPECT_LE(h.min, h.p50) << name;
    EXPECT_LE(h.p50, h.p90) << name;
    EXPECT_LE(h.p90, h.p99) << name;
    EXPECT_LE(h.p99, h.max) << name;
  }

  // The flattened report round-trips through the writer as valid JSON.
  const auto doc = telemetry::json_parse(telemetry::bench_report_json(rep));
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("workload")->str, "itest");
}

}  // namespace
}  // namespace ptstore::workloads
