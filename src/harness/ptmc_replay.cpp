#include "harness/ptmc_replay.h"

#include <optional>

#include "attacks/support.h"
#include "common/bits.h"
#include "harness/campaign.h"
#include "kernel/token.h"
#include "mmu/pte.h"

namespace ptstore::harness {

namespace mc = analysis::ptmc;
using attacks::Outcome;
using Kind = CampaignOp::Kind;

namespace {

/// Lowers one counterexample onto CampaignOps and runs them on one System.
/// Page allocation for the lazy page binding, and the attacker's reads
/// (locating a PCB field's value, like find_leaf_slot locates a PTE), are
/// host-side setup; every store, protocol op and probe is a CampaignOp.
class Replayer {
 public:
  explicit Replayer(const mc::ModelConfig& mcfg)
      : mcfg_(mcfg), sys_(make_config(mcfg)) {
    if (!mcfg.s_bit) {
      for (unsigned h = 0; h < sys_.nharts(); ++h)
        sys_.core(h).pmp().set_secure_enforcement(false);
    }
  }

  ReplayReport run(const mc::Counterexample& ce) {
    mc::State pre = mc::State::initial();
    for (const mc::Step& step : ce.steps) {
      hart_ = step.op.hart;
      if (const auto terminal = lower(pre, step)) {
        rep_.outcome = *terminal;
        return rep_;
      }
      pre = step.after;
    }
    hart_ = 0;  // The P2/P3 witnesses read hart 0's satp.
    rep_.outcome = finish(ce);
    return rep_;
  }

 private:
  static SystemConfig make_config(const mc::ModelConfig& m) {
    SystemConfig c = SystemConfig::cfi_ptstore();
    c.kernel.ptw_check = m.ptw_check;
    c.kernel.token_check = m.token_check;
    c.kernel.zero_check = m.zero_check;
    c.nharts = m.nharts;
    // The model's `ipi` knob maps onto the kernel's shootdown sabotage
    // switch: an ipi-less model replays on a System whose initiating hart
    // skips the cross-hart IPI leg (local sfence only).
    c.kernel.skip_shootdown_ipi = !m.ipi;
    return c;
  }

  static VirtAddr victim_va(unsigned p) {
    return attacks::kVictimVa + MiB(2) * p;
  }
  /// alloc_pt target: a fresh gigapage subtree, so the mapping really does
  /// allocate interior PT pages (and thus consumes a corrupted free list).
  static VirtAddr extra_va(unsigned p) { return victim_va(p) + GiB(2); }

  /// Run one lowered op on the current step's hart and log it.
  OpResult exec(Kind kind, u64 pid, u64 arg, u64 arg2 = 0) {
    const CampaignOp op{kind, pid, arg, hart_, arg2};
    OpResult r = exec_campaign_op(sys_, op);
    rep_.log.push_back(describe(op) + " -> " + r.status);
    return r;
  }

  Process* process(unsigned p) {
    return pid_[p] != 0 ? sys_.kernel().processes().find(pid_[p]) : nullptr;
  }

  u64 peek(PhysAddr pa) { return sys_.mem().read_u64(pa); }

  Outcome stop(Outcome o, std::string detail) {
    rep_.detail = std::move(detail);
    return o;
  }
  Outcome faulted(const char* what, const OpResult& r) {
    return stop(Outcome::kBlockedFault,
                what + std::string(isa::to_string(r.fault)));
  }
  Outcome oom() {
    return stop(Outcome::kContained, "replay ran out of backing pages");
  }

  /// Spray an attacker hierarchy: three table pages mapping evil_va_ to a
  /// kernel-owned data page (normal memory, so the final access is not
  /// PMP-shadowed — P1 is about the *PTE fetches*, which all come from
  /// outside the region). Returns its root, 0 when memory ran out.
  PhysAddr spray() {
    PhysAddr pg[4];  // Root, L1, L0, data.
    for (PhysAddr& p : pg) {
      const auto pa = sys_.kernel().pages().alloc_pages(Gfp::kUser, 0);
      if (!pa) return 0;
      p = *pa;
      sys_.mem().fill(p, 0, kPageSize);
    }
    sys_.mem().write_u64(pg[3], 0x5EC2E7);  // "Kernel data" sentinel.
    const u64 leaf = pte::kR | pte::kW | pte::kU | pte::kA | pte::kD;
    for (unsigned l = 0; l < 3; ++l) {
      exec(Kind::kRwWrite, 0, pg[l] + bits(evil_va_, 30 - 9 * l, 9) * kPteSize,
           pte::make_from_pa(pg[l + 1], pte::kV | (l == 2 ? leaf : 0)));
    }
    fake_l1_ = pg[1];
    return pg[0];
  }

  /// The physical page a model page stands for, bound on first touch: a
  /// secure page to a zeroed PTStore-zone page, a normal page to the root
  /// of a sprayed attacker hierarchy. 0 when memory ran out.
  PhysAddr bind(const mc::State& pre, u8 pg) {
    if (page_pa_[pg] != 0) return page_pa_[pg];
    if (!mc::is_secure(pre, pg)) return page_pa_[pg] = spray();
    const auto pa = sys_.kernel().pages().alloc_pages(Gfp::kPtStore, 0);
    if (!pa) return 0;
    sys_.mem().fill(*pa, 0, kPageSize);
    return page_pa_[pg] = *pa;
  }

  /// The live model process whose issued root is page `pg`, else kNumProcs.
  static unsigned root_owner(const mc::State& s, u8 pg) {
    for (unsigned p = 0; p < mc::kNumProcs; ++p) {
      if (s.procs[p].live && s.procs[p].ghost_root == pg) return p;
    }
    return mc::kNumProcs;
  }

  std::optional<Outcome> lower(const mc::State& pre, const mc::Step& step) {
    const mc::Op& op = step.op;
    switch (op.kind) {
      case mc::OpKind::kSpawn: {
        const unsigned p = op.a;
        const OpResult fork = exec(Kind::kCopyMm, sys_.init().pid, 0);
        if (!fork.ok) {
          if (!step.after.procs[p].live) return std::nullopt;  // As modelled.
          if (fork.proto == ProtoStatus::kZeroDetect)
            return stop(Outcome::kDetectedZero, "fork failed: zero check");
          return stop(Outcome::kBlockedFault, "fork failed: fault/oom");
        }
        pid_[p] = fork.pid;
        if (!exec(Kind::kAllocPt, fork.pid, victim_va(p)).ok ||
            !exec(Kind::kSwitchMm, fork.pid, 0).ok) {
          return stop(Outcome::kContained, "spawn enrichment failed");
        }
        const u8 ghost = step.after.procs[p].ghost_root;
        if (ghost != mc::kNoPage) page_pa_[ghost] = fork.root;
        return std::nullopt;
      }
      case mc::OpKind::kExitMm:
        exec(Kind::kExitMm, pid_[op.a], 0);
        pid_[op.a] = 0;
        return std::nullopt;
      case mc::OpKind::kSwitchMm: {
        const OpResult r = exec(Kind::kSwitchMm, pid_[op.a], 0);
        if (r.skipped || r.ok) return std::nullopt;
        if (is_credential_reject(r.proto))
          return stop(Outcome::kDetectedToken,
                      "switch_mm rejected the pgd/token binding");
        return stop(Outcome::kBlockedFault, "switch_mm faulted");
      }
      case mc::OpKind::kAllocPt: {
        const OpResult r = exec(Kind::kAllocPt, pid_[op.a], extra_va(op.a));
        // A refusal the model also made (it did not grow) is no verdict.
        const bool grew = step.after.procs[op.a].extra_pt != mc::kNoPage;
        if (r.skipped || r.ok || !grew) return std::nullopt;
        if (r.proto == ProtoStatus::kZeroDetect)
          return stop(Outcome::kDetectedZero,
                      "alloc_pt rejected by zero check");
        return stop(Outcome::kBlockedFault, "alloc_pt faulted");
      }
      case mc::OpKind::kFreePt:
        exec(Kind::kFreePt, pid_[op.a], extra_va(op.a));
        return std::nullopt;
      case mc::OpKind::kGrow:
        exec(Kind::kGrow, 0, 0);
        return std::nullopt;
      case mc::OpKind::kUserAccess:
        return witness_user_access(pre, step);
      case mc::OpKind::kAtkWritePage: {
        // A normal page is written by binding it: the spray is the write.
        const PhysAddr pa = bind(pre, op.a);
        if (pa == 0) return oom();
        if (!mc::is_secure(pre, op.a)) return std::nullopt;
        // Into a live root the attacker plants the entry that chains the
        // walk for evil_va_ into its sprayed tables; anywhere else a
        // clobber of the first slot stands for "attacker content".
        PhysAddr slot = pa;
        u64 value = 0x41414141'41414141;
        if (root_owner(pre, op.a) != mc::kNumProcs) {
          if (fake_l1_ == 0 && spray() == 0) return oom();
          slot = pa + bits(evil_va_, 30, 9) * kPteSize;
          value = pte::make_from_pa(fake_l1_, pte::kV);
        }
        const OpResult w = exec(Kind::kRwWrite, 0, slot, value);
        if (!w.ok) return faulted("store into the secure region raised ", w);
        return std::nullopt;
      }
      case mc::OpKind::kAtkRedirectPgd: {
        Process* proc = process(op.a);
        if (proc == nullptr) return std::nullopt;
        const PhysAddr pa = bind(pre, op.b);
        if (pa == 0) return oom();
        exec(Kind::kRwWrite, 0, proc->pcb_pgd_field(), pa);
        expect_root_pa_ = pa;
        return std::nullopt;
      }
      case mc::OpKind::kAtkRedirectToken: {
        Process* proc = process(op.a);
        if (proc == nullptr) return std::nullopt;
        u64 v = 0;
        const auto ref = static_cast<mc::TokenRef>(op.b);
        if (ref == mc::TokenRef::kSlot0 || ref == mc::TokenRef::kSlot1) {
          Process* owner = process(ref == mc::TokenRef::kSlot0 ? 0 : 1);
          if (owner != nullptr) v = peek(owner->pcb_token_field());
        } else if (ref == mc::TokenRef::kFake) {
          // Craft a token image in normal memory (page 0 is never secure)
          // matching this PCB.
          const PhysAddr home = bind(pre, 0);
          if (home == 0) return oom();
          const PhysAddr tok = home + kPageSize - kTokenSize;
          exec(Kind::kRwWrite, 0, tok + kTokenPtPtrOff,
               peek(proc->pcb_pgd_field()));
          exec(Kind::kRwWrite, 0, tok + kTokenUserPtrOff,
               proc->pcb_token_field());
          v = tok;
        }
        exec(Kind::kRwWrite, 0, proc->pcb_token_field(), v);
        return std::nullopt;
      }
      case mc::OpKind::kAtkForgeToken: {
        Process* proc = process(op.a);
        if (proc == nullptr) return std::nullopt;
        const PhysAddr pa = bind(pre, op.b);
        if (pa == 0) return oom();
        const u64 tok = peek(proc->pcb_token_field());
        if (tok == 0) return std::nullopt;  // No token issued: none to forge.
        const OpResult w = exec(Kind::kRwWrite, 0, tok + kTokenPtPtrOff, pa);
        if (!w.ok) return faulted("store into the token table raised ", w);
        forged_slot_ = op.a;
        forged_pa_ = pa;
        return std::nullopt;
      }
      case mc::OpKind::kAtkCorruptAllocator: {
        const PhysAddr pa = bind(pre, op.a);
        if (pa == 0) return oom();
        exec(Kind::kForceAlloc, 0, pa);
        const unsigned owner = root_owner(pre, op.a);
        const VirtAddr va = victim_va(owner < mc::kNumProcs ? owner : 0);
        watch_slot_ = pa + bits(va, 30, 9) * kPteSize;
        watch_sentinel_ = peek(watch_slot_);
        return std::nullopt;
      }
      case mc::OpKind::kAtkSatpWrite: {
        const PhysAddr pa = bind(pre, op.a);
        if (pa == 0) return oom();
        exec(Kind::kSatpWrite, 0, pa);
        expect_root_pa_ = pa;
        return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// A user access ends every P1 and SMP-P2 trace: its probe is the witness.
  Outcome witness_user_access(const mc::State& pre, const mc::Step& step) {
    const mc::Op& op = step.op;
    if (mcfg_.nharts >= 2 && (step.violations & mc::kP2) &&
        !pre.satp_of(op.hart).bound) {
      // SMP P2 witness: this hart's satp still carries a root that was
      // retired without a shootdown and has since been recycled to a new
      // process. The hart therefore translates through another process's
      // live page tables while believing it runs the dead one.
      const unsigned hart = op.hart < sys_.nharts() ? op.hart : 0;
      const u64 stale_ppn = isa::satp::ppn(sys_.core(hart).mmu().satp());
      unsigned owner = mc::kNumProcs;
      for (unsigned p = 0; p < mc::kNumProcs; ++p) {
        Process* proc = process(p);
        if (proc != nullptr &&
            (peek(proc->pcb_pgd_field()) >> kPageShift) == stale_ppn)
          owner = p;
      }
      if (owner == mc::kNumProcs)
        return stop(Outcome::kContained,
                    "remote hart's satp does not carry a recycled root");
      const OpResult probe =
          exec(Kind::kUserProbe, 0, victim_va(owner), /*write=*/0);
      if (!probe.ok) return faulted("stale walk faulted: ", probe);
      return stop(Outcome::kSucceeded,
                  "hart " + std::to_string(op.hart) +
                      " read another process's memory through a stale, "
                      "recycled satp root (P2)");
    }
    // Otherwise this op is the P1 witness: the walker must consume the
    // attacker's out-of-region PTEs.
    const VirtAddr va = fake_l1_ != 0 ? evil_va_ : victim_va(op.a);
    const OpResult probe = exec(Kind::kUserProbe, 0, va, /*write=*/1);
    if (!probe.ok) return faulted("PTW refused the injected tables: ", probe);
    return stop(Outcome::kSucceeded,
                "user access completed through attacker page tables in "
                "normal memory (P1 witnessed)");
  }

  /// The P2/P3/P4 witnesses, judged once the trace has run out.
  Outcome finish(const mc::Counterexample& ce) {
    const u64 root_ppn = isa::satp::ppn(sys_.core().mmu().satp());
    switch (ce.prop) {
      case 1:  // P2: satp must carry the steered, never-issued root.
        if (expect_root_pa_ != 0 &&
            root_ppn == (expect_root_pa_ >> kPageShift))
          return stop(Outcome::kSucceeded,
                      "satp carries a root the kernel never issued (P2)");
        return stop(Outcome::kContained,
                    "satp does not carry the redirected root");
      case 2: {  // P3: the forged binding must validate for a second process.
        Process* proc = forged_pa_ != 0 ? process(forged_slot_) : nullptr;
        if (proc == nullptr)
          return stop(Outcome::kContained, "no forged token to cash in");
        exec(Kind::kRwWrite, 0, proc->pcb_pgd_field(), forged_pa_);
        const OpResult r = exec(Kind::kSwitchMm, pid_[forged_slot_], 0);
        if (is_credential_reject(r.proto))
          return stop(Outcome::kDetectedToken,
                      "switch_mm still rejected the forged binding");
        const u64 now_ppn = isa::satp::ppn(sys_.core().mmu().satp());
        if (r.ok && now_ppn == (forged_pa_ >> kPageShift))
          return stop(Outcome::kSucceeded,
                      "forged token validated: two live processes share one "
                      "page table (P3)");
        return stop(Outcome::kContained, "forged binding did not reach satp");
      }
      case 3:  // P4: the re-issued live PT page must have been clobbered.
        if (watch_slot_ != 0 && peek(watch_slot_) != watch_sentinel_)
          return stop(Outcome::kSucceeded,
                      "live page-table page re-issued and clobbered (P4)");
        return stop(Outcome::kContained, "watched PT slot is intact");
      default:
        return stop(Outcome::kContained,
                    "trace ended without reaching its witness op");
    }
  }

  mc::ModelConfig mcfg_;
  System sys_;
  ReplayReport rep_;
  u8 hart_ = 0;  ///< Hart of the model step being lowered.
  PhysAddr page_pa_[mc::kNumPages] = {};
  u64 pid_[mc::kNumProcs] = {};
  const VirtAddr evil_va_ = kUserSpaceBase + GiB(32);
  PhysAddr fake_l1_ = 0;  ///< L1 table of the latest sprayed hierarchy.
  PhysAddr expect_root_pa_ = 0;
  unsigned forged_slot_ = 0;
  PhysAddr forged_pa_ = 0;
  PhysAddr watch_slot_ = 0;
  u64 watch_sentinel_ = 0;
};

}  // namespace

ReplayReport replay_counterexample(const mc::Counterexample& ce) {
  return Replayer(ce.cfg).run(ce);
}

ReplayReport replay_on_stock(const mc::Counterexample& ce) {
  mc::ModelConfig stock = ce.cfg;
  stock.s_bit = stock.ptw_check = stock.token_check = stock.zero_check = true;
  stock.ipi = true;  // The defended kernel always sends its shootdown IPIs.
  return Replayer(stock).run(ce);
}

}  // namespace ptstore::harness
