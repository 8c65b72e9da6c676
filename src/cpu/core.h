// RV64 interpreter core with M/S/U privilege, PMP (with PTStore S-bit),
// Sv39 MMU, L1 caches/TLBs, and a cycle-approximate timing model sized to a
// small BOOM-class core. Executes real machine code produced by the
// assembler, including the PTStore ld.pt/sd.pt instructions.
//
// The kernel model (src/kernel) drives the same access path through
// access_as_kernel(), so every page-table and token access in the system is
// subject to the identical PMP/MMU checks the guest ISA sees.
#pragma once

#include <array>
#include <functional>
#include <optional>

#include "cache/cache.h"
#include "cpu/bbcache.h"
#include "cpu/branch_predictor.h"
#include "cache/tlb.h"
#include "common/stats.h"
#include "isa/csr.h"
#include "isa/inst.h"
#include "isa/trap.h"
#include "mem/phys_mem.h"
#include "mmu/mmu.h"
#include "pmp/pmp.h"
#include "telemetry/metrics.h"

namespace ptstore {

/// Cycle costs of the timing model (BOOM-small-flavoured approximations;
/// the evaluation depends on ratios, not absolute values).
struct TimingConfig {
  Cycles base_cpi = 1;
  Cycles branch_taken_penalty = 2;
  Cycles jump_penalty = 2;
  Cycles mul_extra = 2;
  Cycles div_extra = 20;
  Cycles csr_extra = 3;
  Cycles trap_entry = 30;
  Cycles trap_return = 10;
  Cycles fence_extra = 20;
  Cycles sfence_extra = 30;
  Cycles amo_extra = 5;
};

struct CoreConfig {
  PhysAddr reset_pc = kDramBase;
  CacheConfig icache{.name = "L1I", .size_bytes = KiB(16), .ways = 4};
  CacheConfig dcache{.name = "L1D", .size_bytes = KiB(16), .ways = 4};
  /// Optional unified L2 behind both L1s. Off by default: the paper's
  /// prototype (Table II) has no L2 — enable for what-if studies only.
  bool l2_enabled = false;
  CacheConfig l2{.name = "L2", .size_bytes = KiB(256), .ways = 8,
                 .hit_latency = 10, .miss_penalty = 60};
  TlbConfig itlb{.name = "ITLB", .entries = 32};
  TlbConfig dtlb{.name = "DTLB", .entries = 8};
  TimingConfig timing;
  BranchPredictorConfig bpred;
  /// When false, the ld.pt/sd.pt decoder entries are disabled and the PMP
  /// S-bit is ignored — the unmodified baseline core of the evaluation.
  bool ptstore_enabled = true;
  /// Decoded basic-block cache (see cpu/bbcache.h). Pure host-speed
  /// optimization: simulated cycles and stats are bit-identical either way.
  bool decode_cache = true;
};

/// Outcome of one memory access performed by the core.
struct MemAccessResult {
  bool ok = false;
  isa::TrapCause fault = isa::TrapCause::kNone;
  u64 value = 0;       ///< Loaded value (loads only).
  PhysAddr pa = 0;     ///< Final physical address when translation succeeded.
  Cycles cycles = 0;   ///< Cache + PTW cycles charged.
};

/// Why step()/run() stopped.
enum class StopReason : u8 {
  kNone = 0,        ///< Instruction retired normally.
  kTrapped,         ///< Trap taken (vectored to a handler).
  kEbreakHalt,      ///< ebreak with no debug handler — test-program halt.
  kWfi,             ///< wfi with no pending interrupt — idle halt.
  kInstLimit,       ///< run() exhausted its instruction budget.
};

struct StepResult {
  StopReason stop = StopReason::kNone;
  isa::TrapCause trap = isa::TrapCause::kNone;
};

class Core;

/// Result of a supervisor trap hook (the C++ kernel model intercepting
/// traps that would vector to stvec).
struct TrapHookResult {
  bool handled = false;  ///< If false, the core vectors to stvec as usual.
};
using STrapHook = std::function<TrapHookResult(Core&, isa::TrapCause, u64 tval)>;

/// Per-instruction trace callback: fires after decode, before execution.
using TraceHook = std::function<void(const Core&, u64 pc, const isa::Inst&)>;

/// Supervisor *interrupt* hook: fires when an S-targeted interrupt is taken
/// (after sepc/scause are set). Returning true performs an sret-like return
/// to sepc instead of executing guest handler code at stvec — the kernel
/// model's interrupt handler.
using SIntrHook = std::function<bool(Core&, unsigned irq_code)>;

/// Complete architectural state of a core, for checkpoints. Microarch
/// state (caches, TLBs, branch predictor) is deliberately excluded; restore
/// resets it to cold, making post-restore execution deterministic.
struct CoreArchState {
  std::array<u64, 32> regs{};
  u64 pc = 0;
  Privilege priv = Privilege::kMachine;
  Cycles cycles = 0;
  u64 instret = 0;
  u64 mstatus = 0, mtvec = 0, medeleg = 0, mideleg = 0, mie = 0, mip = 0;
  u64 mscratch = 0, mepc = 0, mcause = 0, mtval = 0;
  u64 stvec = 0, sscratch = 0, sepc = 0, scause = 0, stval = 0;
  u64 satp = 0;
  u64 mtimecmp = ~u64{0};
  std::array<u8, kPmpEntryCount> pmp_cfg{};
  std::array<u64, kPmpEntryCount> pmp_addr{};
};

class Core {
 public:
  Core(PhysMem& mem, const CoreConfig& cfg);

  /// Architectural checkpoint support (see CoreArchState).
  CoreArchState arch_state() const;
  void restore_arch_state(const CoreArchState& st);

  // ---- architectural state ----
  u64 reg(unsigned idx) const { return regs_[idx & 31]; }
  void set_reg(unsigned idx, u64 v) {
    if ((idx & 31) != 0) regs_[idx & 31] = v;
  }
  u64 pc() const { return pc_; }
  void set_pc(u64 pc) { pc_ = pc; }
  Privilege priv() const { return priv_; }
  void set_priv(Privilege p) { priv_ = p; }

  /// CSR access with privilege + side-effect handling. Returns nullopt when
  /// the CSR does not exist or is not accessible at `as` (caller raises
  /// illegal instruction).
  std::optional<u64> read_csr(u32 num, Privilege as);
  bool write_csr(u32 num, u64 value, Privilege as);

  PmpUnit& pmp() { return pmp_; }
  Mmu& mmu() { return mmu_; }
  /// Read-only decode-cache view (tests assert it restores cold).
  const BlockCache& bbcache() const { return bbcache_; }
  BranchPredictor& bpred() { return bpred_; }
  const BranchPredictor& bpred() const { return bpred_; }
  PhysMem& mem() { return mem_; }
  const CoreConfig& config() const { return cfg_; }

  // ---- execution ----
  // A *step* takes a pending interrupt, or fetches and executes one
  // instruction (which may trap). run_block() is the one dispatch loop;
  // step() and run() drive it.

  /// One step: run_block() with a budget of one.
  StepResult step();
  /// Run until a halt condition or `max_insts` steps pass.
  StepResult run(u64 max_insts);
  /// Run from pc() through a decoded block and the linked successors it
  /// chains to (or one classic step when the decode cache is off or cannot
  /// cover the PC), taking at most `budget` steps (> 0) and subtracting
  /// those taken. Stops at a block end with no usable link, after a trap,
  /// an interrupt, a halt, an entry that stops runs (Zicsr, xRET,
  /// sfence.vma, fence.i, wfi), a store into the block's own frame, or when
  /// cycles() reaches mtimecmp(). Returns the last step's result; every
  /// step before it retired one instruction. Stepping the same number of
  /// steps one at a time reaches the identical state.
  StepResult run_block(u64& budget);

  Cycles cycles() const { return cycles_; }
  void add_cycles(Cycles c) { cycles_ += c; }
  u64 instret() const { return instret_; }
  /// Charge `n` abstractly-executed instructions (workload models).
  void retire_abstract(u64 n, Cycles per_inst = 1) {
    instret_ += n;
    cycles_ += n * per_inst;
    abstract_retired_ += n;
  }
  /// Host-only tally of retire_abstract() charges since construction, so
  /// instret() minus it counts interpreted instructions. Not architectural
  /// state and not a counter: checkpoints and reports never see it.
  u64 abstract_retired() const { return abstract_retired_; }

  /// Install the C++ kernel's trap intercept. Traps delegated to S-mode call
  /// the hook first; if it reports handled, the core performs an sret-like
  /// return to sepc instead of executing guest handler code.
  void set_strap_hook(STrapHook hook) { strap_hook_ = std::move(hook); }

  /// Raise a trap from outside step() (kernel model surfacing a fault).
  void take_trap(isa::TrapCause cause, u64 tval);

  /// Machine timer (CLINT mtimecmp equivalent; mtime == cycle counter).
  u64 mtimecmp() const { return mtimecmp_; }
  void set_mtimecmp(u64 v) { mtimecmp_ = v; }
  /// True if any enabled interrupt is pending at the current privilege.
  bool interrupt_pending() const;

  /// Hart index reported by mhartid (SMP topology; 0 on a single-hart
  /// system). Set once by System when the hart is wired up.
  unsigned hartid() const { return hartid_; }
  void set_hartid(unsigned id) { hartid_ = id; }

  /// Assert / retract the supervisor software-interrupt pending bit — the
  /// CLINT MSIP->SSIP delivery path the SBI uses for cross-hart IPIs.
  void set_ssip(bool pending);
  bool ssip() const;

  /// Install a per-instruction trace callback (see cpu/tracer.h); pass
  /// nullptr to disable.
  void set_trace_hook(TraceHook hook) { trace_hook_ = std::move(hook); }

  /// Install the kernel model's S-interrupt intercept (see SIntrHook).
  void set_sintr_hook(SIntrHook hook) { sintr_hook_ = std::move(hook); }

  // ---- memory path shared with the kernel model ----
  /// Perform one data access exactly as an executed instruction would:
  /// translation, PMP (with AccessKind), cache timing, and the actual
  /// read/write. Loads return the zero-extended value.
  MemAccessResult access(VirtAddr va, unsigned size, AccessType type,
                         AccessKind kind, u64 store_value = 0);

  /// Same, but with an explicit effective privilege (the kernel model runs
  /// logically in S-mode regardless of the core's current mode).
  MemAccessResult access_as(VirtAddr va, unsigned size, AccessType type,
                            AccessKind kind, Privilege priv, u64 store_value = 0);

  /// Every hardware counter of this hart — core events, L1I/L1D/L2, I/D
  /// TLBs, MMU/PTW and branch predictor: the nonzero cells of the hart's
  /// bank — plus the core.cycles/core.instret gauges and, exactly when the
  /// decode cache is on, the bbcache.* counters (zeros included).
  StatSet merged_stats() const;

  /// Zero every counter in this hart's bank. Architectural cycles/instret
  /// are untouched (they are machine state, not telemetry).
  void clear_stats() { bank_.clear(); }

  /// Convenience for loaders: copy a code image into physical memory.
  void load_code(PhysAddr base, const std::vector<u32>& words);

 private:
  /// Data/fetch path with an optional pre-computed fetch translation. When
  /// `pre` is non-null the caller has already run (and charged) the MMU
  /// translation; the access continues from the PMP check.
  MemAccessResult access_with(VirtAddr va, unsigned size, AccessType type,
                              AccessKind kind, Privilege priv, u64 store_value,
                              const TranslateResult* pre);
  /// access_with() from the PMP check on, for the translated address `pa`.
  MemAccessResult access_pa(PhysAddr pa, unsigned size, AccessType type,
                            AccessKind kind, Privilege priv, u64 store_value);
  /// Fetch + decode + execute one instruction (the classic interpreter
  /// path). `pre` as in access_with, for the decode-cache fallback.
  StepResult step_fetch_decode(const TranslateResult* pre);
  /// run_block() with the trace hook called (kTraced) or compiled out.
  template <bool kTraced>
  StepResult run_block_impl(u64& budget);
  /// Instruction-fetch translation of `va`, with exactly the simulated
  /// effects of mmu_.translate(va, kExecute, kRegular, ctx_for(priv_)). See
  /// the fetch memo below.
  TranslateResult fetch_translate(VirtAddr va);
  /// Fetches are the identity map (M-mode, or satp Bare).
  bool fetch_identity() const;
  /// The fetch memo covers `va`: its ITLB lookup would replay the memo.
  bool fetch_memo_covers(VirtAddr va) const;
  /// fetch_translate() past the memo: the MMU call, which may arm the memo.
  TranslateResult fetch_translate_mmu(VirtAddr va);
  /// Write fetch_batch_ into the ITLB, L1I and bbcache counters and clear
  /// it (see cpu/bbcache.h).
  void commit_fetch_batch() {
    if (fetch_batch_.itlb != 0) mmu_.itlb().replay_memo_hits(fetch_batch_.itlb);
    if (fetch_batch_.l1i != 0) icache_.replay_memo_reads(fetch_batch_.l1i);
    if (fetch_batch_.bb_hits != 0) bbcache_.note_hits(fetch_batch_.bb_hits);
    fetch_batch_ = {};
  }
  /// Decode a straight-line run starting at physical `pa` into the cache.
  /// Returns nullptr if not even one instruction could be cached.
  BBlock* bb_build(PhysAddr pa);
  /// The PMP fetch check exactly as access_with performs it (including the
  /// baseline-core S-bit fixup), without stats or faults.
  bool bb_fetch_pmp_allowed(PhysAddr pa) const;
  /// The execute handler of `op`'s instruction class; execute() and every
  /// decoded-block entry dispatch through it.
  static ExecHandler handler_for(isa::Op op);
  template <StepResult (Core::*kExec)(const isa::Inst&)>
  static StepResult dispatch(Core& core, const isa::Inst& in) {
    return (core.*kExec)(in);
  }
  StepResult execute(const isa::Inst& in) { return handler_for(in.op)(*this, in); }
  template <isa::Op kOp>
  StepResult exec_alu(const isa::Inst& in);
  template <bool kStore>
  StepResult exec_mem(const isa::Inst& in);
  StepResult exec_amo(const isa::Inst& in);
  StepResult exec_system(const isa::Inst& in);
  StepResult raise(isa::TrapCause cause, u64 tval);
  /// Evaluate mip/mie/mideleg/mstatus and take the highest-priority
  /// enabled interrupt, if any. Returns true when one was taken.
  bool maybe_take_interrupt() {
    update_timer_pending();
    if ((mip_ & mie_) == 0) return false;
    return take_pending_interrupt();
  }
  /// maybe_take_interrupt() once some enabled interrupt is pending.
  bool take_pending_interrupt();
  void take_interrupt(unsigned code, bool to_supervisor);
  void update_timer_pending() {
    constexpr u64 kMtip = u64{1} << isa::csr::irq::kMti;
    if (cycles_ >= mtimecmp_) {
      mip_ |= kMtip;
    } else {
      mip_ &= ~kMtip;
    }
  }
  void do_sret();
  void do_mret();
  bool csr_accessible(u32 num, Privilege as, bool write) const;
  TranslationContext ctx_for(Privilege priv) const {
    return TranslationContext{
        .priv = priv,
        .sum = (mstatus_ & isa::csr::mstatus::kSum) != 0,
        .mxr = (mstatus_ & isa::csr::mstatus::kMxr) != 0,
    };
  }

  PhysMem& mem_;
  CoreConfig cfg_;
  /// The hart's one counter store: every component below registers here.
  telemetry::CounterBank bank_;
  PmpUnit pmp_;
  Cache icache_;
  Cache dcache_;
  std::optional<Cache> l2_;
  Mmu mmu_;
  BranchPredictor bpred_;

  std::array<u64, 32> regs_{};
  u64 pc_;
  Privilege priv_ = Privilege::kMachine;
  Cycles cycles_ = 0;
  u64 instret_ = 0;
  u64 abstract_retired_ = 0;

  // CSRs.
  u64 mstatus_ = 0;
  u64 mtvec_ = 0;
  u64 medeleg_ = 0;
  u64 mideleg_ = 0;
  u64 mie_ = 0;
  u64 mip_ = 0;
  unsigned hartid_ = 0;
  u64 mscratch_ = 0;
  u64 mepc_ = 0;
  u64 mcause_ = 0;
  u64 mtval_ = 0;
  u64 stvec_ = 0;
  u64 sscratch_ = 0;
  u64 sepc_ = 0;
  u64 scause_ = 0;
  u64 stval_ = 0;

  u64 mtimecmp_ = ~u64{0};  ///< Timer disarmed at reset.

  // Decoded basic-block cache state (cfg_.decode_cache).
  BlockCache bbcache_;
  BBlock* bb_cur_ = nullptr;       ///< Block left mid-way by the last run.
  size_t bb_idx_ = 0;              ///< Next entry within bb_cur_.
  BBlock* bb_prev_ = nullptr;      ///< Block the last run ran to its end.
  unsigned bb_prev_slot_ = 0;      ///< 1 if it ended with a taken transfer.
  u64 bb_prev_epoch_ = 0;          ///< bbcache_.epoch() when it ended.
  bool bb_flush_pending_ = false;  ///< fence.i seen; flush before next fetch.
  u64 bb_table_gen_ = 0;           ///< PhysMem::frame_table_gen() last seen.

  /// Fetch memo hits counted but not yet written (commit_fetch_batch()).
  struct FetchBatch {
    u64 itlb = 0;     ///< ITLB memo replays.
    u64 l1i = 0;      ///< L1I line-memo reads.
    u64 bb_hits = 0;  ///< Instructions dispatched from cached blocks.
  };
  FetchBatch fetch_batch_;

  // Fetch memo: the page of the last Sv39 fetch translation that hit the
  // ITLB. While the key (virtual page, privilege, satp, ITLB memo_gen()) is
  // unchanged, the ITLB memo still holds that page's entry with the same
  // PTE, so a translation of any PC in the page would take the memo branch
  // of Tlb::lookup and pass the same leaf check. fetch_translate() then
  // replays that branch and reuses the physical page.
  u64 fetch_vpage_ = ~u64{0};
  Privilege fetch_priv_ = Privilege::kMachine;
  u64 fetch_satp_ = 0;
  u64 fetch_itlb_gen_ = 0;
  PhysAddr fetch_pa_page_ = 0;

  std::optional<PhysAddr> reservation_;  ///< LR/SC reservation.
  STrapHook strap_hook_;
  TraceHook trace_hook_;
  SIntrHook sintr_hook_;

  telemetry::Counter pmp_faults_;
  telemetry::Counter interrupts_;
  telemetry::Counter traps_;
  telemetry::Counter sd_pt_;
  telemetry::Counter ld_pt_;
};

}  // namespace ptstore
