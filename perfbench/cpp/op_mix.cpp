// perfbench --op-mix: the kernel-model op mix of the repo's figure
// workloads, the source of kernel_churn's op weights (gen.cpp).
//
// Each figure suite runs at its default bench scale on fresh cfi_ptstore
// machines, and the op counts come from System::report() counters
// (process.forks/execs/exits/switches/faults) and the kernel's per-syscall
// histograms. Forks, execs, exits and switches that a fork, fork+execve or
// pipe syscall makes internally are moved out of the direct counts, so each
// op is counted once, at the call the workload made. report() has no
// counter for a user_access that hits a mapped page; run_nginx makes one per
// request and no other suite makes any, so that count is added by hand. The
// mix is the mean of the five suites' shares: each figure counts once,
// whatever its scale.
#include <cstdio>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "kernel/system.h"
#include "workloads.h"
#include "workloads/lmbench.h"
#include "workloads/netserver.h"
#include "workloads/spec.h"

namespace perfbench {
namespace {

using namespace ptstore;

/// Direct op kinds, in print order.
constexpr const char* kKinds[] = {"fork",    "exec",  "exit",  "switch_to",
                                  "syscall", "fault", "access"};

struct Suite {
  std::string name;
  std::map<std::string, double> ops;  ///< Direct ops by kind.
  std::map<Sys, double> sys;          ///< Syscalls by number.
};

/// Run `fn` on a fresh cfi_ptstore machine and add its ops to `s`.
void count(Suite& s, u64 dram, const std::function<void(System&)>& fn) {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = dram;
  auto sys_or = System::create(cfg);
  if (!sys_or) throw std::runtime_error("System::create: " + sys_or.error());
  System& sys = *sys_or.value();
  sys.kernel().enable_latency_collection(true);
  const StatSet before = sys.report();
  fn(sys);
  const StatSet after = sys.report();
  const auto d = [&](const char* k) { return static_cast<double>(after.get(k) - before.get(k)); };
  std::map<Sys, double> n;
  for (const auto& [sc, hist] : sys.kernel().syscall_latency()) {
    n[sc] = static_cast<double>(hist.count());
  }
  const double fork_sys = n[Sys::kFork] + n[Sys::kForkExec];
  s.ops["fork"] += d("process.forks") - fork_sys;
  s.ops["exec"] += d("process.execs") - n[Sys::kForkExec];
  s.ops["exit"] += d("process.exits") - fork_sys;
  s.ops["switch_to"] += d("process.switches") - 2 * (fork_sys + n[Sys::kPipe]);
  s.ops["syscall"] += d("kernel.syscalls");
  s.ops["fault"] += d("process.faults");
  for (const auto& [sc, v] : n) s.sys[sc] += v;
}

std::vector<Suite> measure_suites() {
  using namespace ptstore::workloads;
  std::vector<Suite> out;
  Suite lm{"lmbench", {}, {}};
  for (const MicroTest& t : lmbench_suite()) {
    count(lm, MiB(256), [&t](System& sys) { run_micro(sys, t, 1000); });
  }
  out.push_back(lm);
  Suite spec{"spec", {}, {}};
  for (const SpecProfile& p : spec_cint2006()) {
    count(spec, MiB(512), [&p](System& sys) { run_spec(sys, p, 30); });
  }
  out.push_back(spec);
  Suite nginx{"nginx", {}, {}};
  for (const NginxCase& c : nginx_cases()) {
    count(nginx, MiB(512), [&c](System& sys) { run_nginx(sys, c, 2500, 100); });
    nginx.ops["access"] += 2500;  // One mapped user_access per request.
  }
  out.push_back(nginx);
  Suite redis{"redis", {}, {}};
  for (const RedisCase& c : redis_cases()) {
    count(redis, MiB(512), [&c](System& sys) { run_redis(sys, c, 6000, 50); });
  }
  out.push_back(redis);
  // Fork-stress shares do not depend on its size (N forks, N exits), so it
  // runs at the benches' smoke scale.
  Suite fs{"forkstress", {}, {}};
  count(fs, GiB(1), [](System& sys) { run_fork_stress(sys, 30000 / 16); });
  out.push_back(fs);
  return out;
}

double total(const std::map<std::string, double>& ops) {
  double t = 0;
  for (const auto& [k, v] : ops) t += v;
  return t;
}

}  // namespace

int print_op_mix() {
  const std::vector<Suite> suites = measure_suites();
  std::map<std::string, double> mean;
  std::map<Sys, double> sys_mean;  ///< Mean share of each suite's syscalls.
  double sys_suites = 0;
  for (const Suite& s : suites) sys_suites += s.ops.count("syscall") && s.ops.at("syscall") > 0;
  std::printf("%-12s", "direct ops");
  for (const char* k : kKinds) std::printf(" %10s", k);
  std::printf("\n");
  for (const Suite& s : suites) {
    const double t = total(s.ops);
    std::printf("%-12s", s.name.c_str());
    for (const char* k : kKinds) {
      const double v = s.ops.count(k) ? s.ops.at(k) : 0;
      std::printf(" %10.0f", v);
      mean[k] += v / t / static_cast<double>(suites.size());
    }
    std::printf("\n");
    const double st = s.ops.count("syscall") ? s.ops.at("syscall") : 0;
    for (const auto& [sc, v] : s.sys) {
      if (st > 0) sys_mean[sc] += v / st / sys_suites;
    }
  }
  std::printf("\nmean share (per 10000)\n");
  for (const char* k : kKinds) std::printf("  %-12s %5.0f\n", k, mean[k] * 1e4);
  std::printf("\nsyscall mix (mean over the suites that make syscalls, per 10000)\n");
  for (const auto& [sc, v] : sys_mean) std::printf("  %-12s %5.0f\n", to_string(sc), v * 1e4);
  return 0;
}

}  // namespace perfbench
