// Randomized-campaign engine over the fleet runner: N shards, each a fresh
// machine forked from one post-boot checkpoint, each driven by a scenario
// generator seeded with shard_seed(campaign_seed, shard). Three campaign
// kinds cover the model's main attack surfaces:
//
//   kProto  — random kernel-protocol op sequences (kernel/protocol.h) on a
//             stock PTStore kernel. Any defence firing without an attacker
//             present (zero-check, token reject, S-bit fault) — or a kernel
//             panic — is an isolation/protocol bug.
//   kDiff   — random instruction streams against the two-ISA differential
//             oracle (harness/diff_oracle.h).
//   kAttack — random interleavings of protocol ops with the §III-A attacker
//             primitives (regular-store PTE rewrites, secure-region stores,
//             PCB pgd rewires). Any primitive that *succeeds* is a breach.
//   kSmp    — protocol ops scattered across the harts of a multi-hart
//             machine, interleaved with cross-hart race probes (warm a
//             remote TLB, downgrade the mapping from another hart, probe
//             the remote hart). A probe that still writes after the
//             shootdown acked is a stale-TLB breach; with
//             `sabotage_skip_ipi` the breach is EXPECTED and exercises the
//             reproducer machinery, mirroring kAttack-on-stock.
//
// Every op is recorded with resolved arguments, so a failing shard yields a
// reproducer (seed + op trace) that replays without the RNG and minimizes
// by greedy removal. exec_campaign_op is the single executor of concrete
// protocol ops and attacker primitives; ptmc counterexample replay
// (harness/ptmc_replay.h) lowers onto the same ops. Reports are schema-v1
// JSON; with timing excluded they are byte-identical for any --jobs value.
#pragma once

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "harness/diff_oracle.h"
#include "kernel/protocol.h"
#include "kernel/system.h"
#include "telemetry/profile.h"

namespace ptstore::harness {

inline constexpr u64 kCampaignReportSchemaVersion = 1;

enum class CampaignKind : u8 { kProto, kDiff, kAttack, kSmp };

const char* to_string(CampaignKind k);
std::optional<CampaignKind> campaign_kind_from(std::string_view name);

/// One recorded operation with every argument resolved at generation time,
/// so any subset of a trace replays without the RNG. Ops that reference a
/// pid no longer alive in a minimized replay degrade to benign no-ops.
struct CampaignOp {
  enum class Kind : u8 {
    kCopyMm = 0,
    kAllocPt,
    kFreePt,
    kSwitchMm,
    kExitMm,
    kGrow,
    kRwWriteLeaf,    ///< Attack: regular-store rewrite of a leaf PTE slot.
    kRwWriteSecure,  ///< Attack: regular store at a secure-region address.
    kPcbRewire,      ///< Attack: fake pgd into the PCB, then switch_mm.
    kRaceProbe,      ///< SMP: warm remote TLB, downgrade, probe remote hart.
    kRwWrite,        ///< Attack: regular store of arg2 at arg (S-mode).
    kUserProbe,      ///< U-mode access to arg on `hart`; arg2 != 0 writes.
    kForceAlloc,     ///< Attack: the PT zone's next allocation returns arg.
    kSatpWrite,      ///< Attack: csr gadget writes satp := Sv39 root arg, S=0.
  };
  Kind kind = Kind::kSwitchMm;
  u64 pid = 0;  ///< Subject process, 0 when the op has none.
  u64 arg = 0;  ///< va / order / store value or address, depending on kind.
  u8 hart = 0;  ///< Executing hart (SMP campaigns; always 0 single-hart).
  u64 arg2 = 0; ///< Second operand: rw_write value, user_probe write flag.
};

const char* to_string(CampaignOp::Kind k);
/// The op as one reproducer line: "copy_mm          pid=3 arg=0x0", plus
/// " hart=N" and " arg2=0x..." when those are nonzero.
std::string describe(const CampaignOp& op);

/// Outcome of executing one CampaignOp. It carries no verdict: campaigns
/// and ptmc replay each judge it by their own rule.
struct OpResult {
  std::string status;  ///< Deterministic label ("ok", "oom", "breach", ...).
  bool skipped = false;  ///< Subject missing ("no-proc", ...): a no-op.
  bool ok = false;  ///< Protocol op returned kOk / the primitive completed.
  ProtoStatus proto = ProtoStatus::kOk;  ///< Protocol ops: kernel verdict.
  isa::TrapCause fault = isa::TrapCause::kNone;  ///< Primitive's access fault.
  u64 pid = 0;        ///< copy_mm: the created child; else the subject.
  PhysAddr root = 0;  ///< Page-table root the protocol op reported.
  bool panic = false; ///< The kernel panicked mid-op (status "panic:...").
};

/// Execute one op against a live machine, on the hart it names.
/// KernelPanic is caught and reported in the result.
OpResult exec_campaign_op(System& sys, const CampaignOp& op);

struct ShardOutcome {
  u64 shard = 0;
  u64 seed = 0;
  bool failed = false;
  std::string failure;  ///< Deterministic diagnosis; empty when healthy.
  u64 ops_executed = 0;
  /// "op:status" -> count, e.g. "switch_mm:ok" -> 17. Ordered map so the
  /// JSON report is deterministic.
  std::map<std::string, u64> status_counts;
  /// Minimized failing op trace (proto/attack). For kDiff the seed alone is
  /// the reproducer and this stays empty.
  std::vector<CampaignOp> repro;
  /// Full telemetry report of the shard machine (empty for kDiff).
  StatSet stats;
  /// Folded call-stack profile of the shard run (only when
  /// CampaignSpec::profile is set; empty for kDiff).
  telemetry::FoldedProfile profile;
};

struct CampaignSpec {
  CampaignKind kind = CampaignKind::kProto;
  u64 seed = 1;
  /// Default is a realistic fuzzing-campaign width; tiny shard counts
  /// under-amortize the one-time master boot.
  u64 shards = 64;
  unsigned jobs = 1;     ///< 0 = one per hardware thread.
  u64 ops_per_shard = 64;
  /// DRAM per shard machine (proto/attack). Kept small: the checkpoint
  /// copies materialized frames per fork.
  u64 dram_size = MiB(128);
  /// Processes the master spawns (copy_mm from init) before checkpointing,
  /// so shards start with a real process population. Part of the per-shard
  /// setup the checkpoint amortizes.
  u64 prep_processes = 20;
  /// false = run against the stock kernel (CFI only, no PTStore). Attack
  /// campaigns on the stock kernel are EXPECTED to breach — the paper's
  /// §III-A motivation — which is how the reproducer/minimization machinery
  /// is exercised end to end.
  bool ptstore = true;
  /// Isolation backend for the shard machines. kAuto keeps the legacy
  /// ptstore/stock selection above (and keeps seed reports byte-identical);
  /// anything else layers apply_backend() over it.
  BackendKind backend = BackendKind::kAuto;
  DiffOptions diff;      ///< op_count / sabotage for kDiff shards.
  bool minimize = true;  ///< Greedy trace minimization of failing shards.
  /// Capture a per-shard call-stack profile (proto/attack shards) and merge
  /// them into CampaignResult::profile + a "profile" report section. Off by
  /// default so seed reports stay byte-identical.
  bool profile = false;
  /// Harts per shard machine. 1 keeps the historical single-hart campaigns
  /// (and their byte-identical seed reports); kSmp campaigns default to 2.
  unsigned nharts = 1;
  /// Sabotage: the kernel skips the IPI leg of its TLB shootdowns (local
  /// sfence only). Race probes then reproducibly breach — the known-bad
  /// path that exercises SMP reproducers end to end.
  bool sabotage_skip_ipi = false;
};

/// Host wall-clock accounting. Everything here varies run to run and with
/// --jobs; the report writer omits the whole block unless asked.
struct CampaignTiming {
  double wall_seconds = 0;
  double boot_seconds = 0;        ///< One-time master boot + checkpoint.
  double fork_seconds_total = 0;  ///< Sum of per-shard restore times.
  unsigned jobs_resolved = 1;

  /// Setup speedup from forking instead of booting every shard:
  /// (N boots) / (1 boot + N forks).
  double boot_amortization(u64 shards) const {
    const double boot_each = boot_seconds * static_cast<double>(shards);
    const double forked = boot_seconds + fork_seconds_total;
    return forked <= 0 ? 0 : boot_each / forked;
  }
};

struct CampaignResult {
  CampaignSpec spec;
  std::vector<ShardOutcome> shards;  ///< Index order, regardless of jobs.
  StatSet aggregate;                 ///< Sum of the shards' report() counters.
  /// merge_folded over the shard profiles — a pure sum by stack key, so the
  /// merged profile is byte-identical for any --jobs value.
  telemetry::FoldedProfile profile;
  u64 failures = 0;
  CampaignTiming timing;
};

/// Build the master machine (cfi_ptstore configuration), checkpoint it once,
/// and fan the shards across run_fleet. Deterministic modulo `timing`.
CampaignResult run_campaign(const CampaignSpec& spec);

/// The post-boot checkpoint a campaign of this spec forks from — exposed so
/// tests can replay reproducers against the exact same base state.
SystemCheckpoint campaign_checkpoint(const CampaignSpec& spec);

/// Replay an op trace on a fresh fork of `ck`. Returns true when the trace
/// still produces a violation; `why` (optional) receives the diagnosis.
bool replay_trace_fails(const SystemCheckpoint& ck, CampaignKind kind,
                        const std::vector<CampaignOp>& ops, std::string* why = nullptr);

/// Greedy ddmin-lite: drop ops one at a time, keeping each removal that
/// preserves the failure. Returns the minimized trace.
std::vector<CampaignOp> minimize_trace(const SystemCheckpoint& ck, CampaignKind kind,
                                       const std::vector<CampaignOp>& ops);

/// Schema-v1 JSON campaign report. With include_timing=false every
/// wall-clock-derived field (and the jobs count) is omitted, making the
/// report a pure function of (kind, seed, shards, ops) — the determinism
/// tests compare these byte-for-byte across --jobs values.
void write_campaign_report(std::ostream& os, const CampaignResult& r,
                           bool include_timing);
std::string campaign_report_json(const CampaignResult& r, bool include_timing);

}  // namespace ptstore::harness
