#include "harness/battery.h"

#include "harness/support.h"
#include "common/bits.h"
#include "kernel/token.h"
#include "mmu/pte.h"

namespace ptstore::harness {

using attacks::Outcome;

Outcome outcome_of(const OpResult& r) {
  switch (r.proto) {
    case ProtoStatus::kTokenReject: return Outcome::kDetectedToken;
    case ProtoStatus::kMacReject: return Outcome::kDetectedMac;
    case ProtoStatus::kDomainReject: return Outcome::kDetectedDomain;
    case ProtoStatus::kZeroDetect: return Outcome::kDetectedZero;
    default: return r.ok ? Outcome::kSucceeded : Outcome::kBlockedFault;
  }
}

std::string faulted(const char* what, const OpResult& r) {
  return what + std::string(isa::to_string(r.fault));
}

OpResult OpTrace::exec(CampaignOp::Kind kind, u64 pid, u64 arg, u64 arg2) {
  const CampaignOp op{kind, pid, arg, hart, arg2};
  OpResult r = exec_campaign_op(sys_, op);
  rep_.log.push_back(describe(op) + " -> " + r.status);
  return r;
}

Outcome OpTrace::stop(Outcome o, std::string detail) {
  rep_.outcome = o;
  rep_.detail = std::move(detail);
  return o;
}

attacks::AttackReport OpTrace::end(Outcome o, std::string detail) {
  stop(o, std::move(detail));
  return std::move(rep_);
}

bool satp_carries(System& sys, PhysAddr root, unsigned hart) {
  return isa::satp::ppn(sys.core(hart).mmu().satp()) == (root >> kPageShift);
}

WatchedSlot WatchedSlot::arm(System& sys, PhysAddr table, VirtAddr va) {
  const PhysAddr slot = table + bits(va, 30, 9) * kPteSize;
  return {slot, sys.mem().read_u64(slot)};
}

bool WatchedSlot::clobbered(System& sys) const {
  return slot != 0 && sys.mem().read_u64(slot) != sentinel;
}

std::optional<Spray> spray(OpTrace& t, VirtAddr va, PhysAddr target) {
  PhysAddr pg[4] = {0, 0, 0, target};  // Root, L1, L0, leaf target.
  for (PhysAddr& p : pg) {
    if (p != 0) continue;
    const auto pa = t.sys().kernel().pages().alloc_pages(Gfp::kUser, 0);
    if (!pa) return std::nullopt;
    p = *pa;
    t.sys().mem().fill(p, 0, kPageSize);
  }
  if (target == 0) t.sys().mem().write_u64(pg[3], 0x5EC2E7);  // Kernel data.
  const u64 leaf = pte::kR | pte::kW | pte::kU | pte::kA | pte::kD;
  for (unsigned l = 0; l < 3; ++l) {
    t.exec(CampaignOp::Kind::kRwWrite, 0,
           pg[l] + bits(va, 30 - 9 * l, 9) * kPteSize,
           pte::make_from_pa(pg[l + 1], pte::kV | (l == 2 ? leaf : 0)));
  }
  return Spray{pg[0], pg[1]};
}

}  // namespace ptstore::harness

namespace ptstore::attacks {

namespace {

using harness::OpResult;
using harness::OpTrace;
using Kind = harness::CampaignOp::Kind;

/// Restore a sane address space after an attack wedged satp (harness-only
/// recovery so later assertions can run; M-mode write bypasses S-mode state).
void restore_kernel_satp(System& sys) {
  const u64 satp_v = isa::satp::make(
      isa::satp::kModeSv39, sys.kernel().config().kernel_asid,
      sys.kernel().kernel_root() >> kPageShift,
      sys.kernel().iso().satp_s_bit);
  sys.core().write_csr(isa::csr::kSatp, satp_v, Privilege::kMachine);
  sys.core().mmu().sfence(std::nullopt, std::nullopt);
}

/// The detail of a credential rejection, by the backend check that fired.
const char* by_check(const OpResult& r, const char* token, const char* mac,
                     const char* domain) {
  if (r.proto == ProtoStatus::kMacReject) return mac;
  return r.proto == ProtoStatus::kDomainReject ? domain : token;
}

}  // namespace

const char* to_string(Outcome o) {
  switch (o) {
    case Outcome::kSucceeded: return "ATTACK SUCCEEDED";
    case Outcome::kBlockedFault: return "blocked (access fault)";
    case Outcome::kDetectedToken: return "detected (token check)";
    case Outcome::kDetectedZero: return "detected (zero check)";
    case Outcome::kContained: return "contained (no protected state reached)";
    case Outcome::kDetectedMac: return "detected (pointer MAC)";
    case Outcome::kDetectedDomain: return "detected (domain check)";
  }
  return "?";
}

AttackReport pt_tampering(System& sys) {
  OpTrace t(sys, "PT-Tampering");
  Process* victim = setup_victim(sys, pte::kR);  // Read-only victim page.
  if (victim == nullptr) return t.end(Outcome::kSucceeded, "setup failed");
  const auto slot =
      find_leaf_slot(sys, t.peek(victim->pcb_pgd_field()), kVictimVa);
  if (!slot) return t.end(Outcome::kSucceeded, "victim PTE not found");

  // Flip W (and keep U) on the victim's read-only page — the classic
  // permission-bit attack — with a regular arbitrary write.
  const OpResult w = t.exec(Kind::kRwWriteLeaf, victim->pid,
                            t.peek(*slot) | pte::kW | pte::kD);
  if (!w.ok) return t.end(outcome_of(w), faulted("store to PTE raised ", w));

  // Write went through; confirm the compromise is architecturally real.
  sys.core().mmu().sfence(std::nullopt, std::nullopt);  // Attacker's flush.
  const OpResult probe = t.exec(Kind::kUserProbe, 0, kVictimVa, /*write=*/1);
  if (!probe.ok && sys.kernel().iso().verify_on_walk)
    return t.end(Outcome::kDetectedMac,
                 "verify-on-walk refused the tampered PTE");
  if (!probe.ok)
    return t.end(Outcome::kContained, "PTE modified but probe still faulted");
  return t.end(Outcome::kSucceeded,
               "read-only page is now writable from user mode");
}

AttackReport pt_tampering_kernel_expose(System& sys) {
  OpTrace t(sys, "PT-Tampering (U-bit)");
  Process* victim = setup_victim(sys);
  if (victim == nullptr) return t.end(Outcome::kSucceeded, "setup failed");
  // Target: the gigapage direct-map entry covering DRAM in the *active*
  // root — flipping its U bit exposes all kernel memory to user mode (the
  // SMEP/SMAP-bypass flavour of §II-B). In our model each user root carries
  // its own copy of the kernel entries, so the attacker edits the root the
  // victim is running on.
  const PhysAddr dram = sys.mem().dram_base();
  const PhysAddr slot =
      t.peek(victim->pcb_pgd_field()) + bits(dram, 30, 9) * kPteSize;
  const OpResult w = t.exec(Kind::kRwWrite, 0, slot, t.peek(slot) | pte::kU);
  if (!w.ok)
    return t.end(outcome_of(w), faulted("store to kernel PTE raised ", w));
  sys.core().mmu().sfence(std::nullopt, std::nullopt);
  // Probe: user-mode read of kernel memory (a secret in the direct map).
  constexpr u64 kSecret = 0x5EC2E7;
  sys.mem().write_u64(dram + MiB(20), kSecret);
  const OpResult probe =
      t.exec(Kind::kUserProbe, 0, dram + MiB(20), /*write=*/0);
  if (!probe.ok && sys.kernel().iso().verify_on_walk)
    return t.end(Outcome::kDetectedMac,
                 "verify-on-walk refused the tampered kernel PTE");
  if (!probe.ok)
    return t.end(Outcome::kContained,
                 "PTE modified but the probe still faulted");
  return t.end(
      probe.value == kSecret ? Outcome::kSucceeded : Outcome::kContained,
      "user mode reads kernel memory through the flipped U bit");
}

AttackReport pt_injection(System& sys) {
  OpTrace t(sys, "PT-Injection");
  Process* victim = setup_victim(sys);
  if (victim == nullptr) return t.end(Outcome::kSucceeded, "setup failed");

  // The attacker sprays a fake 3-level hierarchy into normal memory whose
  // walk for evil_va makes the kernel-root page (a secure-region page on
  // PTStore, plain memory on the baseline) writable from user mode.
  const VirtAddr evil_va = kUserSpaceBase + GiB(32);
  const auto fake = spray(t, evil_va, sys.kernel().kernel_root());
  if (!fake) return t.end(Outcome::kSucceeded, "no memory for fake tables");
  // Level-2 kernel identity entries are architecturally determined — the
  // attacker reconstructs them without reading the real root.
  const u64 giga = u64{1} << 30;
  const u64 kernel = pte::kV | pte::kR | pte::kW | pte::kX | pte::kA |
                     pte::kD | pte::kG;
  for (PhysAddr pa = 0; pa < align_up(sys.mem().dram_end(), giga);
       pa += giga) {
    const PhysAddr slot = fake->root + bits(pa, 30, 9) * kPteSize;
    if (!t.exec(Kind::kRwWrite, 0, slot, pte::make_from_pa(pa, kernel)).ok)
      return t.end(Outcome::kBlockedFault, "could not even write fake tables");
  }

  // Hijack the victim's page-table pointer (PCB lives in normal memory, so
  // this write always succeeds — the defence must catch what follows).
  if (!t.exec(Kind::kRwWrite, 0, victim->pcb_pgd_field(), fake->root).ok)
    return t.end(Outcome::kBlockedFault, "PCB write unexpectedly blocked");

  // Victim gets scheduled.
  const OpResult sw = t.exec(Kind::kSwitchMm, victim->pid, 0);
  if (is_credential_reject(sw.proto))
    return t.end(
        outcome_of(sw),
        by_check(sw, "switch_mm rejected the hijacked pgd: token mismatch",
                 "switch_mm rejected the hijacked pgd: credential MAC mismatch",
                 "switch_mm rejected the hijacked pgd: root not in the PT "
                 "domain"));

  // satp now points at the fake root. Probe the injected mapping.
  const OpResult probe = t.exec(Kind::kUserProbe, 0, evil_va, /*write=*/1);
  restore_kernel_satp(sys);
  if (!probe.ok)
    return t.end(outcome_of(probe),
                 faulted("PTW refused the injected tables: ", probe));
  return t.end(Outcome::kSucceeded,
               "user-mode write to the kernel page-table root succeeded");
}

AttackReport pt_reuse(System& sys) {
  OpTrace t(sys, "PT-Reuse");
  Process* attacker = setup_victim(sys);
  // Root-privileged victim.
  const OpResult fork = t.exec(Kind::kCopyMm, sys.init().pid, 0);
  Process* victim = sys.kernel().processes().find(fork.pid);
  if (attacker == nullptr || victim == nullptr)
    return t.end(Outcome::kSucceeded, "setup failed");

  // Replace the victim's page-table pointer (and token pointer — the
  // attacker copies everything it can see) with the attacker's.
  const u64 attacker_pgd = t.peek(attacker->pcb_pgd_field());
  t.exec(Kind::kRwWrite, 0, victim->pcb_pgd_field(), attacker_pgd);
  t.exec(Kind::kRwWrite, 0, victim->pcb_token_field(),
         t.peek(attacker->pcb_token_field()));

  const OpResult sw = t.exec(Kind::kSwitchMm, victim->pid, 0);
  if (is_credential_reject(sw.proto))
    return t.end(
        outcome_of(sw),
        by_check(sw,
                 "token's user pointer does not point back at the victim PCB",
                 "copied MAC does not cover (attacker root, victim pid)",
                 "attacker root not registered in the PT domain"));
  // The root-privileged victim now runs on the attacker's address space —
  // the attacker's code executes with the victim's privileges.
  const bool reused = harness::satp_carries(sys, attacker_pgd);
  restore_kernel_satp(sys);
  if (!reused)
    return t.end(Outcome::kContained,
                 "satp does not carry the attacker's root");
  return t.end(Outcome::kSucceeded,
               "victim switched onto the attacker's page table");
}

AttackReport allocator_metadata(System& sys) {
  OpTrace t(sys, "Allocator-metadata");
  Process* victim = setup_victim(sys);
  if (victim == nullptr) return t.end(Outcome::kSucceeded, "setup failed");

  // Corrupt the buddy free lists so the next page-table allocation returns
  // the victim's *live* root table, and watch the root's *user-half* entry
  // (its kVictimVa subtree pointer): a re-issued root gets zeroed/rebuilt
  // and loses it.
  const PhysAddr victim_root = t.peek(victim->pcb_pgd_field());
  t.exec(Kind::kForceAlloc, 0, victim_root);
  const auto watch = harness::WatchedSlot::arm(sys, victim_root, kVictimVa);
  const OpResult fork = t.exec(Kind::kCopyMm, sys.init().pid, 0);
  if (fork.proto == ProtoStatus::kZeroDetect)
    return t.end(
        outcome_of(fork),
        "new PT page was not all-zero: overlapping allocation rejected");
  if (watch.clobbered(sys))
    return t.end(Outcome::kSucceeded,
                 "victim's live root table was re-issued and clobbered");
  return t.end(Outcome::kContained,
               "allocation proceeded without touching the victim root");
}

AttackReport vm_metadata(System& sys) {
  OpTrace t(sys, "VM-metadata");
  Process* victim = setup_victim(sys, pte::kR);  // Read-only VMA.
  if (victim == nullptr) return t.end(Outcome::kSucceeded, "setup failed");

  // Corrupt the VMA metadata (kernel heap — attacker-writable) so the
  // read-only area comes back writable: the next fault maps it writable.
  t.exec(Kind::kFreePt, victim->pid, kVictimVa);
  if (!t.exec(Kind::kAllocPt, victim->pid, kVictimVa).ok)
    return t.end(Outcome::kContained,
                 "tainted VMA did not yield a writable mapping");

  // The attacker owns a writable *user* page. Escalation still requires
  // touching page tables — which is exactly what PTStore guards (§V-E4:
  // VMAs hold only user-space state, so the kernel address space and the
  // secure region are unaffected).
  const OpResult w = t.exec(Kind::kRwWriteLeaf, victim->pid, 0);
  if (w.skipped) return t.end(Outcome::kSucceeded, "victim PTE not found");
  if (!w.ok)
    return t.end(
        Outcome::kContained,
        "writable user page gained, but page tables remain unreachable");
  return t.end(Outcome::kSucceeded,
               "tainted VM metadata chained into direct page-table tampering");
}

AttackReport tlb_inconsistency(System& sys) {
  OpTrace t(sys, "TLB-inconsistency");
  Process* victim = setup_victim(sys);
  if (victim == nullptr) return t.end(Outcome::kSucceeded, "setup failed");

  // Inject the TLB-inconsistency bug (paper §V-E5): a stale writable
  // user-level translation whose target physical page now holds a live page
  // table. VM-based protections are blind to it; PTStore's PMP check is
  // physical and per-access.
  const PhysAddr target_pa = t.peek(victim->pcb_pgd_field());
  const VirtAddr stale_va = kUserSpaceBase + GiB(48);
  t.exec(Kind::kStaleTlb, victim->pid, stale_va,
         pte::make_from_pa(target_pa, pte::kV | pte::kR | pte::kW | pte::kU |
                                          pte::kA | pte::kD));

  const u64 sentinel = t.peek(target_pa);
  const OpResult probe = t.exec(Kind::kUserProbe, 0, stale_va, /*write=*/1);
  if (!probe.ok)
    return t.end(outcome_of(probe),
                 faulted("stale-TLB store hit PMP: ", probe));
  return t.end(t.peek(target_pa) != sentinel ? Outcome::kSucceeded
                                             : Outcome::kContained,
               "stale writable translation reached the live page table");
}

AttackReport token_forgery(System& sys) {
  OpTrace t(sys, "Token-forgery");
  Process* attacker = setup_victim(sys);
  // Privileged victim.
  const OpResult fork = t.exec(Kind::kCopyMm, sys.init().pid, 0);
  Process* victim = sys.kernel().processes().find(fork.pid);
  if (attacker == nullptr || victim == nullptr)
    return t.end(Outcome::kSucceeded, "setup failed");

  const u64 attacker_pgd = t.peek(attacker->pcb_pgd_field());
  const u64 victim_token = t.peek(victim->pcb_token_field());
  if (victim_token != 0) {
    // Forge the *table entry itself*: point the victim token's pt pointer at
    // the attacker's root with a regular store. The table lives in the
    // secure region, so this is exactly what the PMP S bit must stop.
    const OpResult w = t.exec(Kind::kRwWrite, 0,
                              victim_token + kTokenPtPtrOff, attacker_pgd);
    if (!w.ok)
      return t.end(outcome_of(w),
                   faulted("store into the token table raised ", w));
  }
  // The forged token binds the attacker's root to the victim — redirect the
  // victim's pgd there and the (unchanged) validation logic agrees.
  t.exec(Kind::kRwWrite, 0, victim->pcb_pgd_field(), attacker_pgd);
  const OpResult sw = t.exec(Kind::kSwitchMm, victim->pid, 0);
  if (is_credential_reject(sw.proto))
    return t.end(
        outcome_of(sw),
        by_check(sw, "switch_mm still rejected the forged binding",
                 "MAC validation still rejected the forged binding",
                 "domain registry still rejected the forged binding"));
  const bool hijacked = harness::satp_carries(sys, attacker_pgd);
  restore_kernel_satp(sys);
  if (!hijacked)
    return t.end(Outcome::kContained,
                 "satp does not carry the attacker's root");
  return t.end(Outcome::kSucceeded,
               "forged token validated: victim runs on the attacker's root");
}

std::vector<AttackReport> run_all(const SystemConfig& cfg) {
  std::vector<AttackReport> out;
  for (AttackReport (*scenario)(System&) :
       {pt_tampering, pt_tampering_kernel_expose, pt_injection, pt_reuse,
        allocator_metadata, vm_metadata, tlb_inconsistency, token_forgery}) {
    System sys(cfg);
    out.push_back(scenario(sys));
  }
  return out;
}

}  // namespace ptstore::attacks
