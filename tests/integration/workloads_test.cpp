// Workload drivers sanity: every benchmark workload completes on every
// configuration, and the headline overhead shape of the paper holds at
// reduced scale (PTStore delta small; CFI dominates; adjustments trigger
// only when the region is undersized).
#include <gtest/gtest.h>

#include <algorithm>

#include "workloads/lmbench.h"
#include "workloads/netserver.h"
#include "workloads/runner.h"
#include "workloads/spec.h"

namespace ptstore::workloads {
namespace {

TEST(Workloads, LmbenchSuiteRunsEverywhere) {
  const auto suite = lmbench_suite();
  EXPECT_GE(suite.size(), 15u);
  for (const auto& cfg : {SystemConfig::baseline(), SystemConfig::cfi_ptstore()}) {
    SystemConfig c = cfg;
    c.dram_size = MiB(256);
    System sys(c);
    for (const auto& t : suite) {
      const Cycles before = sys.cycles();
      run_micro(sys, t, 10);
      EXPECT_GT(sys.cycles(), before) << t.name;
    }
    // The machine is still functional afterwards.
    EXPECT_TRUE(sys.kernel().syscall(sys.init(), Sys::kNull));
  }
}

TEST(Workloads, MeasureProducesAllConfigs) {
  const Measurement m = measure("null", MiB(256), [](System& sys) {
    for (int i = 0; i < 50; ++i) sys.kernel().syscall(sys.init(), Sys::kNull);
  });
  EXPECT_GT(m.base, 0u);
  EXPECT_GT(m.cfi, m.base);          // CFI costs something.
  EXPECT_GE(m.cfi_ptstore, m.cfi);   // PTStore adds nothing on this path...
  EXPECT_LT(m.ptstore_only_pct(), 1.0);  // ...beyond noise.
}

TEST(Workloads, ForkStressTriggersAdjustmentsOnlyWhenSmall) {
  SystemConfig small = SystemConfig::cfi_ptstore();
  small.dram_size = MiB(512);
  small.kernel.secure_region_init = MiB(4);
  {
    System sys(small);
    run_fork_stress(sys, 1500);  // ~1500 roots ≈ 6 MiB of PT pages > 4 MiB.
    EXPECT_GT(sys.kernel().adjustments(), 0u);
    EXPECT_EQ(sys.kernel().processes().live_count(), 1u);  // All reaped.
  }
  SystemConfig big = SystemConfig::cfi_ptstore();
  big.dram_size = MiB(512);
  big.kernel.secure_region_init = MiB(64);
  {
    System sys(big);
    run_fork_stress(sys, 1500);
    EXPECT_EQ(sys.kernel().adjustments(), 0u);  // Paper: 64 MiB suffices.
  }
}

TEST(Workloads, ForkStressShapeMatchesPaper) {
  // Scaled-down §V-D1: CFI+PTStore (with adjustments) costs more than
  // CFI+PTStore-Adj (1 GiB region), which costs more than CFI alone.
  const Measurement m = measure(
      "forkstress", MiB(512),
      [](System& sys) { run_fork_stress(sys, 1200); }, /*include_noadj=*/true);
  EXPECT_GT(m.cfi, m.base);
  EXPECT_GT(m.cfi_ptstore_noadj, m.cfi);
  EXPECT_LT(m.noadj_pct(), 10.0);
  EXPECT_LT(m.cfi_pct(), 10.0);
}

TEST(Workloads, SpecProfilesCoverCint2006) {
  const auto profiles = spec_cint2006();
  EXPECT_EQ(profiles.size(), 11u);  // perlbench excluded.
  for (const auto& p : profiles) {
    EXPECT_NE(p.name.find("."), std::string::npos);
    EXPECT_GT(p.footprint_pages, 0u);
  }
}

TEST(Workloads, SpecRunsAndStaysCpuBound) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  System sys(cfg);
  const auto prof = spec_cint2006()[4];  // hmmer: minimal kernel work.
  const u64 inst_before = sys.core().instret();
  run_spec(sys, prof, 5);
  EXPECT_GE(sys.core().instret() - inst_before, u64{5'000'000});
  // Kernel entries are rare for hmmer.
  EXPECT_LT(sys.kernel().counters().value_of("kernel.syscalls"), 100u);
}

TEST(Workloads, NginxServesAllCases) {
  for (const auto& c : nginx_cases()) {
    SystemConfig cfg = SystemConfig::cfi_ptstore();
    cfg.dram_size = MiB(256);
    System sys(cfg);
    run_nginx(sys, c, 100, 100);
    EXPECT_GE(sys.kernel().counters().value_of("kernel.syscalls"), 300u) << c.name;
    EXPECT_EQ(sys.kernel().processes().live_count(), 1u) << c.name;
  }
}

TEST(Workloads, RedisCoversSixteenCommands) {
  EXPECT_EQ(redis_cases().size(), 16u);
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  run_redis(sys, redis_cases()[2], 500, 50);
  EXPECT_GE(sys.kernel().counters().value_of("kernel.syscalls"), 500u);
}

TEST(Workloads, KernelBoundPtStoreDeltaStaysUnderPaperBound) {
  // Paper: excluding CFI, PTStore adds <0.86% on kernel-bound workloads.
  const auto c = nginx_cases()[0];
  const Measurement m = measure("nginx", MiB(256), [&](System& sys) {
    run_nginx(sys, c, 500, 100);
  });
  EXPECT_LT(m.ptstore_only_pct(), 0.86) << "PTStore-only overhead too high";
  EXPECT_GE(m.ptstore_only_pct(), -0.5);
}

TEST(Workloads, CpuBoundPtStoreDeltaStaysUnderPaperBound) {
  // Paper: PTStore-only <0.29% for CPU-bound SPEC.
  const auto prof = spec_cint2006()[0];
  const Measurement m = measure("bzip2", MiB(512), [&](System& sys) {
    run_spec(sys, prof, 10);
  });
  EXPECT_LT(m.ptstore_only_pct(), 0.29);
}

TEST(Workloads, NginxKeepaliveAcceptsLess) {
  // Keepalive reuses connections: far fewer accept/close syscalls per
  // request than the non-keepalive case.
  auto accepts = [](bool keepalive) {
    SystemConfig cfg = SystemConfig::cfi();
    cfg.dram_size = MiB(256);
    System sys(cfg);
    NginxCase c{keepalive ? "ka" : "plain", KiB(1), keepalive};
    run_nginx(sys, c, 256, 100);
    // accept/close appears once per request without keepalive (plus worker
    // setup); once per 64 requests with it.
    return sys.kernel().counters().value_of("kernel.syscalls");
  };
  EXPECT_LT(accepts(true), accepts(false));
}

TEST(Workloads, NginxWorkersAreRealProcesses) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  run_nginx(sys, nginx_cases()[0], 64, 100);
  // 4 workers forked and reaped, plus context switches per request.
  EXPECT_GE(sys.kernel().counters().value_of("process.forks"), 4u);
  EXPECT_EQ(sys.kernel().processes().live_count(), 1u);
  EXPECT_GE(sys.kernel().counters().value_of("process.switches"), 64u);
}

TEST(Workloads, RedisWriteCommandsGrowHeap) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  const u64 faults_before = sys.kernel().counters().value_of("process.faults");
  run_redis(sys, redis_cases()[2] /* SET */, 2000, 50);
  const u64 set_faults =
      sys.kernel().counters().value_of("process.faults") - faults_before;
  EXPECT_GT(set_faults, 30u);  // Heap pages demand-faulted as data grows.
}

TEST(Workloads, SpecDeterministicAcrossRuns) {
  auto run_once = [] {
    SystemConfig cfg = SystemConfig::cfi_ptstore();
    cfg.dram_size = MiB(512);
    System sys(cfg);
    run_spec(sys, spec_cint2006()[1], 5);
    return sys.cycles();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Workloads, TickModelFiresPeriodically) {
  SystemConfig cfg = SystemConfig::cfi();
  cfg.dram_size = MiB(256);
  System sys(cfg);
  TickModel tick;
  tick.reset(sys.kernel());
  const u64 traps_before = sys.kernel().counters().value_of("kernel.traps");
  sys.core().add_cycles(tick.period * 3 + 10);
  tick.advance(sys.kernel());
  EXPECT_EQ(sys.kernel().counters().value_of("kernel.traps") - traps_before, 3u);
}

TEST(Workloads, RegistryListsEveryFigureWorkload) {
  const auto names = WorkloadRegistry::instance().names();
  for (const char* expected :
       {"lmbench", "spec", "nginx", "redis", "forkstress"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "registry missing " << expected;
  }

  auto w = WorkloadRegistry::instance().make("spec");
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->name(), "spec");
  EXPECT_EQ(WorkloadRegistry::instance().make("no-such-workload"), nullptr);
}

TEST(Workloads, ScaledHonoursEnvOverride) {
  // Without PTSTORE_FULL the default is used.
  unsetenv("PTSTORE_FULL");
  EXPECT_EQ(scaled(100000, 1000), 1000u);
  setenv("PTSTORE_FULL", "1", 1);
  EXPECT_EQ(scaled(100000, 1000), 100000u);
  unsetenv("PTSTORE_FULL");
}

}  // namespace
}  // namespace ptstore::workloads
