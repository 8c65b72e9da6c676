#include "harness/campaign.h"

#include <chrono>
#include <ctime>
#include <sstream>

#include "attacks/primitive.h"
#include "attacks/support.h"
#include "common/rng.h"
#include "harness/fleet.h"
#include "kernel/protocol.h"
#include "telemetry/json.h"

namespace ptstore::harness {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Per-thread CPU seconds. Boot and fork costs are measured on this clock,
/// not wall time: with more workers than cores a fork's wall time includes
/// preemption by sibling shards, which would make boot_amortization depend
/// on --jobs and the host's core count instead of on the work avoided.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Page window the proto generator maps/unmaps in: well above the victim's
/// fixed mapping so attack interleavings never collide with it.
constexpr VirtAddr kOpsVaBase = kUserSpaceBase + MiB(32);
constexpr u64 kOpsVaPages = 64;

/// The PTE value attack primitives try to plant: user-RWX mapping of the
/// kernel image base — the classic PT-Injection payload.
u64 injected_pte() {
  return ((kDramBase >> kPageShift) << pte::kPpnShift) | pte::kV | pte::kR |
         pte::kW | pte::kX | pte::kU;
}

}  // namespace

const char* to_string(CampaignKind k) {
  switch (k) {
    case CampaignKind::kProto: return "proto";
    case CampaignKind::kDiff: return "diff";
    case CampaignKind::kAttack: return "attack";
    case CampaignKind::kSmp: return "smp";
  }
  return "?";
}

std::optional<CampaignKind> campaign_kind_from(std::string_view name) {
  if (name == "proto") return CampaignKind::kProto;
  if (name == "diff") return CampaignKind::kDiff;
  if (name == "attack") return CampaignKind::kAttack;
  if (name == "smp") return CampaignKind::kSmp;
  return std::nullopt;
}

const char* to_string(CampaignOp::Kind k) {
  switch (k) {
    case CampaignOp::Kind::kCopyMm: return "copy_mm";
    case CampaignOp::Kind::kAllocPt: return "alloc_pt";
    case CampaignOp::Kind::kFreePt: return "free_pt";
    case CampaignOp::Kind::kSwitchMm: return "switch_mm";
    case CampaignOp::Kind::kExitMm: return "exit_mm";
    case CampaignOp::Kind::kGrow: return "grow";
    case CampaignOp::Kind::kRwWriteLeaf: return "rw_write_leaf";
    case CampaignOp::Kind::kRwWriteSecure: return "rw_write_secure";
    case CampaignOp::Kind::kPcbRewire: return "pcb_rewire";
    case CampaignOp::Kind::kRaceProbe: return "race_probe";
  }
  return "?";
}

OpResult exec_campaign_op(System& sys, const CampaignOp& op, CampaignKind kind) {
  ProtocolOps proto(sys.kernel());
  ProcessManager& pm = sys.kernel().processes();
  // SMP campaigns record the executing hart per op; replays re-dispatch to
  // the same hart, so reproducers stay interleave-deterministic.
  if (sys.nharts() > 1) {
    sys.kernel().set_active_hart(op.hart < sys.nharts() ? op.hart : 0);
  }
  try {
    switch (op.kind) {
      case CampaignOp::Kind::kCopyMm:
      case CampaignOp::Kind::kAllocPt:
      case CampaignOp::Kind::kFreePt:
      case CampaignOp::Kind::kSwitchMm:
      case CampaignOp::Kind::kExitMm:
      case CampaignOp::Kind::kGrow: {
        Process* proc = op.pid != 0 ? pm.find(op.pid) : nullptr;
        if (op.kind != CampaignOp::Kind::kGrow && proc == nullptr) {
          // A minimized replay dropped the op that created this pid.
          return {"no-proc", false};
        }
        ProtoResult r;
        switch (op.kind) {
          case CampaignOp::Kind::kCopyMm: r = proto.copy_mm(*proc); break;
          case CampaignOp::Kind::kAllocPt: r = proto.alloc_pt(*proc, op.arg); break;
          case CampaignOp::Kind::kFreePt: r = proto.free_pt(*proc, op.arg); break;
          case CampaignOp::Kind::kSwitchMm: r = proto.switch_mm(*proc); break;
          case CampaignOp::Kind::kExitMm: r = proto.exit_mm(*proc); break;
          default: r = proto.grow(static_cast<unsigned>(op.arg)); break;
        }
        // On a stock kernel (kProto) a firing defence IS the bug: nothing
        // attacked the machine, so zero-check/token/S-bit events mean the
        // protocol corrupted its own state. Under kAttack those same
        // statuses are the defences working as intended.
        const bool defence_fired = r.status == ProtoStatus::kZeroDetect ||
                                   is_credential_reject(r.status) ||
                                   r.status == ProtoStatus::kFault;
        const bool violation = (kind == CampaignKind::kProto ||
                                kind == CampaignKind::kSmp) &&
                               defence_fired;
        return {to_string(r.status), violation};
      }

      case CampaignOp::Kind::kRwWriteLeaf: {
        Process* proc = op.pid != 0 ? pm.find(op.pid) : nullptr;
        if (proc == nullptr) return {"no-proc", false};
        const u64 root = pm.pcb_pgd(*proc);
        const auto slot = attacks::find_leaf_slot(sys, root, attacks::kVictimVa);
        if (!slot) return {"no-slot", false};
        ArbitraryRw rw(sys.core());
        const KAccess w = rw.write(*slot, op.arg);
        // A regular store into a secure-region PT page must fault (S-bit).
        if (w.ok) return {"breach", true};
        return {"blocked", false};
      }

      case CampaignOp::Kind::kRwWriteSecure: {
        ArbitraryRw rw(sys.core());
        const KAccess w = rw.write(op.arg, 0xDEAD'BEEF'DEAD'BEEFULL);
        if (w.ok) return {"breach", true};
        return {"blocked", false};
      }

      case CampaignOp::Kind::kPcbRewire: {
        Process* proc = op.pid != 0 ? pm.find(op.pid) : nullptr;
        if (proc == nullptr) return {"no-proc", false};
        const u64 orig = pm.pcb_pgd(*proc);
        ArbitraryRw rw(sys.core());
        // The PCB lives in attackable normal memory: this store succeeds.
        if (!rw.write(proc->pcb_pgd_field(), op.arg).ok) return {"pcb-unreachable", false};
        const ProtoResult r = proto.switch_mm(*proc);
        // Undo so later ops run on an uncorrupted machine.
        (void)rw.write(proc->pcb_pgd_field(), orig);
        if (r.status == ProtoStatus::kOk) return {"breach", true};
        return {"blocked", false};
      }

      case CampaignOp::Kind::kRaceProbe: {
        // Cross-hart stale-TLB race probe, in three beats:
        //   1. hart 1 runs the subject and faults op.arg in writable — its
        //      TLB now caches a writable translation;
        //   2. hart 0 downgrades the page to read-only, which ends in a
        //      targeted cross-hart shootdown;
        //   3. hart 1 write-probes the page in U-mode. After the shootdown
        //      acked, the write MUST fault; a completed write means hart 1
        //      kept the stale writable entry — a shootdown-protocol breach.
        if (sys.nharts() < 2) return {"no-smp", false};
        Process* proc = op.pid != 0 ? pm.find(op.pid) : nullptr;
        if (proc == nullptr) return {"no-proc", false};
        Kernel& k = sys.kernel();
        const VirtAddr va = op.arg;
        k.set_active_hart(1);
        (void)proto.alloc_pt(*proc, va);  // Idempotent: may already be mapped.
        if (!proto.switch_mm(*proc).ok() || !k.user_access(*proc, va, true)) {
          k.set_active_hart(0);
          return {"no-map", false};
        }
        k.set_active_hart(0);
        if (!pm.protect_vma(*proc, va, kPageSize, pte::kR)) {
          return {"no-vma", false};
        }
        const MemAccessResult w = attacks::user_probe(sys.core(1), va, true);
        // Restore writability so later ops see a consistent machine.
        (void)pm.protect_vma(*proc, va, kPageSize, pte::kR | pte::kW);
        if (w.ok) return {"breach", true};
        return {"blocked", false};
      }
    }
  } catch (const KernelPanic& p) {
    return {std::string("panic:") + p.what(), true};
  }
  return {"?", false};
}

namespace {

/// Live pids in ascending order (std::map iteration), init included.
std::vector<u64> live_pids(System& sys) {
  std::vector<u64> pids;
  for (const auto& [pid, proc] : sys.kernel().processes().all()) pids.push_back(pid);
  return pids;
}

/// Generate + execute one proto/attack op stream, recording resolved ops.
/// Stops at the first violation; the recorded trace ends with the violating
/// op so it replays as-is.
void run_op_shard(System& sys, CampaignKind kind, Rng& rng, u64 op_count,
                  ShardOutcome* out) {
  const SecureRegion sr = sys.sbi().sr_get();
  const u64 victim_pid =
      kind == CampaignKind::kAttack && sys.kernel().processes().current() != nullptr
          ? sys.kernel().processes().current()->pid
          : 0;

  for (u64 i = 0; i < op_count; ++i) {
    const std::vector<u64> pids = live_pids(sys);
    const u64 init_pid = sys.init().pid;
    const u64 some_pid = pids[rng.next_below(pids.size())];
    const VirtAddr some_va = kOpsVaBase + rng.next_below(kOpsVaPages) * kPageSize;

    CampaignOp op;
    const u64 roll = rng.next_below(100);
    if (kind == CampaignKind::kSmp && roll < 12) {
      // Race-probe slice: the composite op drives both harts itself.
      op = {CampaignOp::Kind::kRaceProbe, some_pid, some_va};
    } else if (kind == CampaignKind::kAttack && roll < 25) {
      // Attacker-primitive slice of the interleaving.
      switch (roll % 3) {
        case 0:
          op = {CampaignOp::Kind::kRwWriteLeaf, victim_pid, injected_pte()};
          break;
        case 1: {
          if (sr.size() == 0) {  // Stock kernel: no secure region to probe.
            op = {CampaignOp::Kind::kRwWriteLeaf, victim_pid, injected_pte()};
            break;
          }
          const u64 off = rng.next_below(sr.size() / 8) * 8;
          op = {CampaignOp::Kind::kRwWriteSecure, 0, sr.base + off};
          break;
        }
        default:
          op = {CampaignOp::Kind::kPcbRewire, some_pid,
                (kDramBase + MiB(2)) & ~u64{kPageMask}};
          break;
      }
    } else if (roll < 40) {
      op = {CampaignOp::Kind::kCopyMm, some_pid, 0};
    } else if (roll < 58) {
      op = {CampaignOp::Kind::kAllocPt, some_pid, some_va};
    } else if (roll < 70) {
      op = {CampaignOp::Kind::kFreePt, some_pid, some_va};
    } else if (roll < 86) {
      op = {CampaignOp::Kind::kSwitchMm, some_pid, 0};
    } else if (roll < 96) {
      // Never exit init (or the attack victim: its mapping anchors the
      // rw_write_leaf primitive).
      const u64 pid = some_pid == init_pid || some_pid == victim_pid ? 0 : some_pid;
      if (pid == 0) {
        op = {CampaignOp::Kind::kSwitchMm, init_pid, 0};
      } else {
        op = {CampaignOp::Kind::kExitMm, pid, 0};
      }
    } else {
      op = {CampaignOp::Kind::kGrow, 0, rng.next_below(3)};
    }
    if (kind == CampaignKind::kSmp && op.kind != CampaignOp::Kind::kRaceProbe) {
      // Scatter protocol ops across the harts; the recorded hart makes the
      // interleaving part of the reproducer.
      op.hart = static_cast<u8>(rng.next_below(sys.nharts()));
    }

    out->repro.push_back(op);
    const OpResult r = exec_campaign_op(sys, op, kind);
    ++out->ops_executed;
    ++out->status_counts[std::string(to_string(op.kind)) + ":" + r.status];
    if (r.violation) {
      out->failed = true;
      std::ostringstream os;
      os << to_string(op.kind) << " -> " << r.status << " at op " << i;
      out->failure = os.str();
      return;
    }
  }
  // Healthy shard: the trace is not a reproducer, drop it.
  out->repro.clear();
}

}  // namespace

SystemCheckpoint campaign_checkpoint(const CampaignSpec& spec) {
  SystemConfig cfg =
      spec.ptstore ? SystemConfig::cfi_ptstore() : SystemConfig::cfi();
  apply_backend(cfg, spec.backend);
  cfg.dram_size = spec.dram_size;
  cfg.nharts = spec.nharts;
  cfg.kernel.skip_shootdown_ipi = spec.sabotage_skip_ipi;
  auto sys = System::create(cfg);
  if (!sys.ok()) {
    throw std::runtime_error("campaign master boot failed: " + sys.error());
  }
  System& s = *sys.value();
  // Deterministic master prep: pre-spawn a process population so every
  // shard starts with real copy/switch/exit targets instead of spending
  // its first ops building one. This is per-shard setup work the
  // checkpoint amortizes — without forking, each shard would boot AND
  // re-spawn this population itself.
  ProtocolOps proto(s.kernel());
  for (u64 i = 0; i < spec.prep_processes; ++i) {
    const ProtoResult r = proto.copy_mm(s.init());
    if (r.status != ProtoStatus::kOk) {
      throw std::runtime_error("campaign master prep copy_mm failed");
    }
  }
  return s.checkpoint();
}

bool replay_trace_fails(const SystemCheckpoint& ck, CampaignKind kind,
                        const std::vector<CampaignOp>& ops, std::string* why) {
  auto sys = System::create_from(ck);
  if (!sys.ok()) {
    if (why != nullptr) *why = "fork failed: " + sys.error();
    return false;
  }
  if (kind == CampaignKind::kAttack) {
    attacks::setup_victim(*sys.value());
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    const OpResult r = exec_campaign_op(*sys.value(), ops[i], kind);
    if (r.violation) {
      if (why != nullptr) {
        std::ostringstream os;
        os << to_string(ops[i].kind) << " -> " << r.status << " at op " << i;
        *why = os.str();
      }
      return true;
    }
  }
  return false;
}

std::vector<CampaignOp> minimize_trace(const SystemCheckpoint& ck, CampaignKind kind,
                                       const std::vector<CampaignOp>& ops) {
  std::vector<CampaignOp> best = ops;
  // Greedy one-at-a-time removal, front to back. Ops whose removal breaks
  // later pid references degrade to no-ops during replay, so removals
  // compose without re-resolving arguments.
  size_t i = 0;
  while (i < best.size()) {
    std::vector<CampaignOp> candidate = best;
    candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
    if (replay_trace_fails(ck, kind, candidate)) {
      best = std::move(candidate);
    } else {
      ++i;
    }
  }
  return best;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  CampaignResult result;
  result.spec = spec;
  result.shards.resize(spec.shards);
  result.timing.jobs_resolved = resolve_jobs(spec.jobs);
  const auto wall0 = Clock::now();

  SystemCheckpoint ck;
  if (spec.kind != CampaignKind::kDiff) {
    const double boot0 = thread_cpu_seconds();
    ck = campaign_checkpoint(spec);
    result.timing.boot_seconds = thread_cpu_seconds() - boot0;
  }

  std::vector<double> fork_secs(spec.shards, 0.0);
  run_fleet(spec.jobs, spec.shards, [&](u64 shard) {
    ShardOutcome& out = result.shards[shard];
    out.shard = shard;
    out.seed = shard_seed(spec.seed, shard);
    Rng rng(out.seed);

    if (spec.kind == CampaignKind::kDiff) {
      const DiffOutcome d = run_diff_stream(out.seed, spec.diff);
      out.ops_executed = spec.diff.op_count;
      out.failed = d.failed();
      if (out.failed) out.failure = d.describe();
      ++out.status_counts[out.failed ? "diff:diverged" : "diff:ok"];
      return;
    }

    // Warm this worker's heap once (untimed) before the first timed fork:
    // a fresh thread pays one-time allocator-arena and stack faults on its
    // first big allocation, costs the boot-per-shard alternative would pay
    // identically and which are not part of the fork work being measured.
    thread_local bool warmed = false;
    if (!warmed) {
      warmed = true;
      auto discard = System::create_from(ck);
      (void)discard;
    }

    const double fork0 = thread_cpu_seconds();
    auto sys = System::create_from(ck);
    fork_secs[shard] = thread_cpu_seconds() - fork0;
    if (!sys.ok()) {
      out.failed = true;
      out.failure = "fork failed: " + sys.error();
      return;
    }
    if (spec.kind == CampaignKind::kAttack) {
      attacks::setup_victim(*sys.value());
    }
    // Per-shard call-stack capture: the profiler is thread-local, so each
    // worker profiles its own shard; the session brackets exactly the op
    // stream (fork/minimize replays stay outside it).
    if (spec.profile) {
      System& m = *sys.value();
      telemetry::enable_profiling().session_begin(
          "shard", m.core().cycles(), static_cast<u8>(m.core().priv()));
    }
    run_op_shard(*sys.value(), spec.kind, rng, spec.ops_per_shard, &out);
    if (spec.profile) {
      telemetry::Profiler& pf = *telemetry::profiling();
      pf.session_end(sys.value()->core().cycles());
      out.profile = pf.snapshot();
      telemetry::disable_profiling();
    }
    if (out.failed && spec.minimize && !out.repro.empty()) {
      out.repro = minimize_trace(ck, spec.kind, out.repro);
    }
    out.stats = sys.value()->report();
  });

  for (const double s : fork_secs) result.timing.fork_seconds_total += s;
  // Shard order, whatever the worker schedule: StatSet is name-keyed and
  // addition commutes, so the aggregate is identical for any --jobs value.
  for (const ShardOutcome& s : result.shards) {
    if (s.failed) ++result.failures;
    result.aggregate.merge(s.stats);
  }
  if (spec.profile) {
    for (const ShardOutcome& s : result.shards) {
      telemetry::merge_folded(result.profile, s.profile);
    }
  }
  result.timing.wall_seconds = seconds_since(wall0);
  return result;
}

void write_campaign_report(std::ostream& os, const CampaignResult& r,
                           bool include_timing) {
  telemetry::JsonWriter w(os);
  w.begin_object();
  w.kv("schema_version", kCampaignReportSchemaVersion);
  w.kv("campaign", to_string(r.spec.kind));
  w.kv("ptstore", r.spec.ptstore);
  // Only emitted for explicit backend selections: seed reports (kAuto)
  // predate this key and stay byte-identical.
  if (r.spec.backend != BackendKind::kAuto) {
    w.kv("backend", to_string(r.spec.backend));
  }
  // SMP campaigns only: single-hart reports predate these keys and stay
  // byte-identical.
  if (r.spec.nharts > 1) {
    w.kv("nharts", static_cast<u64>(r.spec.nharts));
    w.kv("sabotage_skip_ipi", r.spec.sabotage_skip_ipi);
  }
  w.kv("campaign_seed", r.spec.seed);
  w.kv("shard_count", r.spec.shards);
  w.kv("ops_per_shard",
       r.spec.kind == CampaignKind::kDiff ? r.spec.diff.op_count : r.spec.ops_per_shard);
  w.kv("failures", r.failures);

  w.key("shards").begin_array();
  for (const ShardOutcome& s : r.shards) {
    w.begin_object();
    w.kv("shard", s.shard);
    w.kv("seed", s.seed);
    w.kv("failed", s.failed);
    if (s.failed) w.kv("failure", s.failure);
    w.kv("ops_executed", s.ops_executed);
    w.key("status_counts").begin_object();
    for (const auto& [k, v] : s.status_counts) w.kv(k, v);
    w.end_object();
    if (!s.repro.empty()) {
      w.key("repro").begin_array();
      for (const CampaignOp& op : s.repro) {
        w.begin_object();
        w.kv("op", to_string(op.kind));
        w.kv("pid", op.pid);
        w.kv("arg", op.arg);
        // Hart 0 is implied (and the only hart in pre-SMP reports).
        if (op.hart != 0) w.kv("hart", static_cast<u64>(op.hart));
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
  }
  w.end_array();

  w.key("aggregate_counters").begin_object();
  for (const auto& [name, value] : r.aggregate.counters()) w.kv(name, value);
  w.end_object();

  // Conditional: absent unless the campaign profiled, so pre-profile seed
  // reports stay byte-identical.
  if (r.spec.profile) {
    w.key("profile").begin_object();
    w.kv("total_cycles", r.profile.total_cycles);
    w.kv("truncated_frames", r.profile.truncated_frames);
    w.key("stacks").begin_array();
    for (const auto& [key, entry] : r.profile.stacks) {
      w.begin_object();
      w.kv("stack", key);
      w.kv("cycles", entry.cycles);
      w.kv("count", entry.count);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }

  if (include_timing) {
    w.key("timing").begin_object();
    w.kv("jobs", static_cast<u64>(r.timing.jobs_resolved));
    w.kv("wall_seconds", r.timing.wall_seconds);
    w.kv("boot_seconds", r.timing.boot_seconds);
    w.kv("fork_seconds_total", r.timing.fork_seconds_total);
    w.kv("boot_amortization", r.timing.boot_amortization(r.spec.shards));
    w.end_object();
  }

  w.end_object();
  os << "\n";
}

std::string campaign_report_json(const CampaignResult& r, bool include_timing) {
  std::ostringstream os;
  write_campaign_report(os, r, include_timing);
  return os.str();
}

}  // namespace ptstore::harness
