// ptcampaign: drive a randomized fleet campaign from the command line.
//
//   ptcampaign [proto|diff|attack|smp] [--seed N] [--shards N] [--jobs N]
//              [--ops N] [--harts N] [--json <path>] [--profile <path>]
//              [--with-timing] [--sabotage] [--skip-ipi] [--no-minimize]
//
// Boots one master machine, checkpoints it, forks every shard from the
// checkpoint (kernel boot runs once regardless of shard count), and runs
// the shards across a work-stealing pool. The exit code is the number of
// failing shards (capped at 125); each failure is printed with its seed and
// minimized reproducer so it can be replayed with --jobs 1.
//
// --json reports are deterministic: by default the timing block (the only
// wall-clock-derived content) is omitted, so the same kind/seed/shards/ops
// produce byte-identical files for any --jobs value. --with-timing adds the
// wall-clock block plus the boot-amortization speedup of checkpoint forking.
// --sabotage injects a deliberate off-by-one into the diff oracle's
// reference model — the known-bad-seed path used to exercise reproducers.
// --skip-ipi is the SMP analogue: the kernel drops the IPI leg of its TLB
// shootdowns, so `smp` race probes reproducibly catch stale remote TLBs.
// The smp kind defaults to 2 harts; --harts overrides (proto/attack accept
// it too and then scatter their ops across harts).
// --profile captures a per-shard call-stack profile and writes the merged
// (sum-by-stack, also jobs-invariant) profile as ptstore.profile.v1 JSON —
// feed it to `ptprof flame` / `ptprof profile`.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "common/args.h"
#include "harness/campaign.h"
#include "harness/fleet.h"

namespace {

using namespace ptstore;
using namespace ptstore::harness;

int usage(const char* argv0, int rc) {
  std::fprintf(stderr,
               "usage: %s [proto|diff|attack|smp] [--seed N] [--shards N] "
               "[--jobs N] [--harts N]\n"
               "       %*s [--ops N] [--json <path>] [--profile <path>] "
               "[--with-timing] [--sabotage] [--skip-ipi] [--stock] "
               "[--backend NAME] [--no-minimize]\n",
               argv0, static_cast<int>(std::strlen(argv0)), "");
  return rc;
}

void print_repro(const ShardOutcome& s) {
  std::printf("  repro (seed %llu, %zu ops):\n",
              static_cast<unsigned long long>(s.seed), s.repro.size());
  for (const CampaignOp& op : s.repro) {
    std::printf("    %s\n", describe(op).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  std::string json_path;
  std::string profile_path;
  bool with_timing = false;
  bool harts_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    // The numeric options: each value must parse whole and in range.
    const auto number = [&](u64 min, u64 max) {
      return parse_arg(arg.c_str(), argv[++i], min, max);
    };
    if (auto kind = campaign_kind_from(arg)) {
      spec.kind = *kind;
    } else if (arg == "--seed" && i + 1 < argc) {
      const auto v = number(0, ~u64{0});
      if (!v) return 2;
      spec.seed = *v;
    } else if (arg == "--shards" && i + 1 < argc) {
      const auto v = number(1, ~u64{0});
      if (!v) return 2;
      spec.shards = *v;
    } else if (arg == "--jobs" && i + 1 < argc) {
      const auto v = number(0, std::numeric_limits<unsigned>::max());
      if (!v) return 2;
      spec.jobs = static_cast<unsigned>(*v);
    } else if (arg == "--ops" && i + 1 < argc) {
      const auto v = number(0, ~u64{0});
      if (!v) return 2;
      spec.ops_per_shard = *v;
      spec.diff.op_count = spec.ops_per_shard;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg == "--profile" && i + 1 < argc) {
      profile_path = argv[++i];
      spec.profile = true;
    } else if (arg.rfind("--profile=", 0) == 0) {
      profile_path = arg.substr(10);
      spec.profile = true;
    } else if (arg == "--with-timing") {
      with_timing = true;
    } else if (arg == "--harts" && i + 1 < argc) {
      const auto v = number(1, 8);
      if (!v) return 2;
      spec.nharts = static_cast<unsigned>(*v);
      harts_set = true;
    } else if (arg == "--skip-ipi") {
      spec.sabotage_skip_ipi = true;
    } else if (arg == "--sabotage") {
      spec.diff.sabotage = true;
    } else if (arg == "--stock") {
      spec.ptstore = false;
    } else if (arg == "--backend" && i + 1 < argc) {
      const auto kind = backend_kind_from(argv[++i]);
      if (!kind) {
        std::fprintf(stderr, "unknown backend '%s' (stock|ptstore|dpti|ptauth)\n",
                     argv[i]);
        return 2;
      }
      spec.backend = *kind;
    } else if (arg == "--no-minimize") {
      spec.minimize = false;
    } else {
      return usage(argv[0], arg == "--help" || arg == "-h" ? 0 : 2);
    }
  }
  if (spec.kind == CampaignKind::kSmp && !harts_set) spec.nharts = 2;
  if (spec.kind == CampaignKind::kSmp && spec.nharts < 2) {
    std::fprintf(stderr, "the smp campaign needs --harts >= 2\n");
    return 2;
  }

  std::printf("ptcampaign: %s campaign, seed %llu, %llu shards x %llu ops, "
              "%u jobs",
              to_string(spec.kind),
              static_cast<unsigned long long>(spec.seed),
              static_cast<unsigned long long>(spec.shards),
              static_cast<unsigned long long>(spec.ops_per_shard),
              resolve_jobs(spec.jobs));
  if (spec.nharts > 1) {
    std::printf(", %u harts%s", spec.nharts,
                spec.sabotage_skip_ipi ? " (IPIs sabotaged)" : "");
  }
  std::printf("\n");

  const CampaignResult r = run_campaign(spec);

  for (const ShardOutcome& s : r.shards) {
    std::printf("shard %3llu  seed %-20llu %6llu ops  %s\n",
                static_cast<unsigned long long>(s.shard),
                static_cast<unsigned long long>(s.seed),
                static_cast<unsigned long long>(s.ops_executed),
                s.failed ? s.failure.c_str() : "ok");
    if (s.failed && !s.repro.empty()) print_repro(s);
  }

  std::printf("\n%llu/%llu shards failed, wall %.2fs\n",
              static_cast<unsigned long long>(r.failures),
              static_cast<unsigned long long>(spec.shards),
              r.timing.wall_seconds);
  if (spec.kind != CampaignKind::kDiff) {
    std::printf("boot amortization: %.1fx (%llu boots avoided; boot %.3fs, "
                "forks %.3fs total)\n",
                r.timing.boot_amortization(spec.shards),
                static_cast<unsigned long long>(spec.shards - 1),
                r.timing.boot_seconds, r.timing.fork_seconds_total);
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", json_path.c_str());
      return 2;
    }
    write_campaign_report(os, r, with_timing);
    std::printf("JSON report -> %s%s\n", json_path.c_str(),
                with_timing ? "" : " (timing omitted: deterministic form)");
  }

  if (!profile_path.empty()) {
    std::ofstream os(profile_path);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", profile_path.c_str());
      return 2;
    }
    telemetry::write_profile_json(os, r.profile);
    std::printf("merged call-stack profile -> %s (%zu stacks, %llu cycles)\n",
                profile_path.c_str(), r.profile.stacks.size(),
                static_cast<unsigned long long>(r.profile.total_cycles));
  }

  return r.failures > 125 ? 125 : static_cast<int>(r.failures);
}
