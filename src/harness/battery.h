// The paper's security analysis (§II-B, §V-E) as an executable battery:
// eight attack scenarios, each runnable against any system configuration.
// A scenario is a fixed CampaignOp trace run by exec_campaign_op plus a
// witness that judges it. Setting up the victim, locating page tables and
// reading memory are host-side; every store, protocol op and probe is an
// op, logged as a reproducer line. ptmc counterexample replay
// (harness/ptmc_replay.h) shares the trace runner, outcome_of and the
// witnesses below.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "harness/campaign.h"

namespace ptstore::attacks {

enum class Outcome : u8 {
  kSucceeded = 0,   ///< Attack achieved its goal — system compromised.
  kBlockedFault,    ///< Hardware raised an access fault (PMP / PTW check).
  kDetectedToken,   ///< Token validation rejected the hijacked pointer.
  kDetectedZero,    ///< Zero-check rejected the overlapping allocation.
  kContained,       ///< Attack ran but could not affect protected state.
  // Backend-specific detections append here (golden battery transcripts
  // depend on the strings, not the values, but don't renumber anyway).
  kDetectedMac,     ///< PTAuth pointer-MAC rejected the access or switch.
  kDetectedDomain,  ///< DPTI domain registry rejected the hijacked root.
};

const char* to_string(Outcome o);

/// One attack or replay run: the verdict, what decided it, and the ops it
/// executed.
struct AttackReport {
  std::string name;
  Outcome outcome = Outcome::kSucceeded;
  std::string detail;
  std::vector<std::string> log;  ///< Executed ops: describe(op) -> status.
  bool defended() const { return outcome != Outcome::kSucceeded; }
};

/// §II-B PT-Tampering: write a victim leaf PTE directly (flip W/U bits)
/// through the arbitrary-write primitive.
AttackReport pt_tampering(System& sys);

/// §II-B PT-Tampering, kernel-space variant: flip the U bit on a kernel
/// direct-map entry so user mode can read kernel memory (the SMEP/SMAP
/// bypass the paper describes).
AttackReport pt_tampering_kernel_expose(System& sys);

/// §II-B PT-Injection: craft a fake page-table hierarchy in normal memory,
/// hijack the victim PCB's pgd pointer at it, get the victim scheduled.
AttackReport pt_injection(System& sys);

/// §II-B PT-Reuse: redirect a root-privileged victim's pgd (and token
/// pointer) at the attacker process's existing page table.
AttackReport pt_reuse(System& sys);

/// §V-E3: corrupt allocator metadata so a new page-table page overlaps an
/// in-use page table, then trigger a PT allocation via fork.
AttackReport allocator_metadata(System& sys);

/// §V-E4: tamper with VM-area metadata to gain writable user mappings, then
/// try to reach kernel/page-table state through them.
AttackReport vm_metadata(System& sys);

/// §V-E5: exploit a (injected) TLB-inconsistency bug — a stale writable
/// translation aimed at a physical page that now holds page tables.
AttackReport tlb_inconsistency(System& sys);

/// §III-C3 token forgery (ptmc P3 witness): rewrite a victim token's
/// pt-pointer in the secure-region token table with a regular store, then
/// redirect the victim's pgd at the attacker's root so the forged binding
/// validates. The S bit must make the forging store fault.
AttackReport token_forgery(System& sys);

/// Run the full battery (8 scenarios), each against a fresh system instance
/// (scenarios corrupt kernel state by design and are not composable).
std::vector<AttackReport> run_all(const SystemConfig& cfg);

}  // namespace ptstore::attacks

namespace ptstore::harness {

/// The defence an op's typed result shows firing: a credential or zero-check
/// rejection names its check, any other refusal is an access fault, and a
/// completed op is a success.
attacks::Outcome outcome_of(const OpResult& r);

/// `what` followed by the name of the access fault that refused `r`.
std::string faulted(const char* what, const OpResult& r);

/// Runs CampaignOps on one System and records them in a report.
class OpTrace {
 public:
  OpTrace(System& sys, std::string name) : sys_(sys) {
    rep_.name = std::move(name);
  }

  /// Run one op on `hart` and log "describe(op) -> status".
  OpResult exec(CampaignOp::Kind kind, u64 pid, u64 arg, u64 arg2 = 0);
  /// Set the verdict; returns it so a trace can end with `return stop(..)`.
  attacks::Outcome stop(attacks::Outcome o, std::string detail);
  /// stop(), then hand the report over.
  attacks::AttackReport end(attacks::Outcome o, std::string detail);

  System& sys() { return sys_; }
  u64 peek(PhysAddr pa) { return sys_.mem().read_u64(pa); }
  attacks::AttackReport& report() { return rep_; }

  u8 hart = 0;  ///< Hart the next op runs on.

 private:
  System& sys_;
  attacks::AttackReport rep_;
};

/// Attacker-root witness (PT-Reuse, token forgery, ptmc P2/P3): `hart`'s
/// satp carries `root`.
bool satp_carries(System& sys, PhysAddr root, unsigned hart = 0);

/// Re-issue witness (allocator metadata, ptmc P4): the root-level entry of
/// `table` for `va`, and the value it held when armed. A live PT page that
/// is handed out again gets zeroed or rebuilt, which clobbers it.
struct WatchedSlot {
  PhysAddr slot = 0;
  u64 sentinel = 0;
  static WatchedSlot arm(System& sys, PhysAddr table, VirtAddr va);
  bool clobbered(System& sys) const;
};

/// The attacker's sprayed hierarchy: three fresh normal pages whose walk for
/// `va` ends in a user-RW leaf for `target`. With no target a fourth fresh
/// page, holding the kernel-data sentinel 0x5EC2E7, is mapped instead. The
/// pages are allocated host-side; each table entry is an rw_write op.
struct Spray {
  PhysAddr root = 0;
  PhysAddr l1 = 0;
};
/// nullopt when memory ran out.
std::optional<Spray> spray(OpTrace& t, VirtAddr va, PhysAddr target = 0);

}  // namespace ptstore::harness
