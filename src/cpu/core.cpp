#include "cpu/core.h"

#include "common/log.h"
#include "telemetry/trace.h"

namespace ptstore {

using isa::TrapCause;
namespace csr = isa::csr;

Core::Core(PhysMem& mem, const CoreConfig& cfg)
    : mem_(mem),
      cfg_(cfg),
      icache_(cfg.icache, bank_),
      dcache_(cfg.dcache, bank_),
      l2_(cfg.l2_enabled ? std::optional<Cache>(std::in_place, cfg.l2, bank_)
                         : std::nullopt),
      mmu_(mem, pmp_, cfg.itlb, cfg.dtlb, bank_, &dcache_,
           cfg.l2_enabled ? &*l2_ : nullptr),
      bpred_(cfg.bpred, bank_),
      pc_(cfg.reset_pc),
      bbcache_(bank_),
      pmp_faults_(bank_.counter("core.pmp_faults", "accesses denied by PMP")),
      interrupts_(bank_.counter("core.interrupts", "interrupts taken")),
      traps_(bank_.counter("core.traps", "synchronous traps taken")),
      sd_pt_(bank_.counter("core.sd_pt", "sd.pt instructions executed")),
      ld_pt_(bank_.counter("core.ld_pt", "ld.pt instructions executed")) {
  // PTW trace spans need the core clock; purely observational.
  mmu_.set_clock(&cycles_, &instret_, &priv_);
  // Gauges published by merged_stats(); interned here so reports can attach
  // units and descriptions to them.
  auto& reg = telemetry::MetricsRegistry::instance();
  reg.intern("core.cycles", "simulated cycles elapsed", "cycles");
  reg.intern("core.instret", "instructions retired", "instructions");
}

void Core::load_code(PhysAddr base, const std::vector<u32>& words) {
  for (size_t i = 0; i < words.size(); ++i) {
    mem_.write_u32(base + 4 * i, words[i]);
  }
}

MemAccessResult Core::access(VirtAddr va, unsigned size, AccessType type,
                             AccessKind kind, u64 store_value) {
  return access_as(va, size, type, kind, priv_, store_value);
}

MemAccessResult Core::access_as(VirtAddr va, unsigned size, AccessType type,
                                AccessKind kind, Privilege priv, u64 store_value) {
  return access_with(va, size, type, kind, priv, store_value, nullptr);
}

MemAccessResult Core::access_with(VirtAddr va, unsigned size, AccessType type,
                                  AccessKind kind, Privilege priv, u64 store_value,
                                  const TranslateResult* pre) {
  // Caller-provided `pre` is ok & charged.
  if (pre != nullptr) return access_pa(pre->pa, size, type, kind, priv, store_value);
  if (!is_aligned(va, size)) {
    MemAccessResult res;
    res.fault = isa::misaligned_for(type);
    return res;
  }
  const TranslateResult tr = mmu_.translate(va, type, kind, ctx_for(priv));
  if (!tr.ok) {
    MemAccessResult res;
    res.cycles = tr.cycles;
    res.fault = tr.fault;
    return res;
  }
  MemAccessResult res = access_pa(tr.pa, size, type, kind, priv, store_value);
  res.cycles += tr.cycles;
  return res;
}

MemAccessResult Core::access_pa(PhysAddr pa, unsigned size, AccessType type,
                                AccessKind kind, Privilege priv, u64 store_value) {
  MemAccessResult res;
  // PMP is checked on the *physical* address of every access — including
  // TLB hits. This is exactly why PTStore survives TLB-inconsistency
  // attacks (paper §V-E5): stale virtual permissions cannot bypass it.
  PmpDecision pd = pmp_.check(pa, size, type, kind, priv);
  if (!cfg_.ptstore_enabled) {
    // Baseline core: the S-bit has no meaning; re-run the check treating the
    // access as regular so only base PMP R/W/X semantics apply.
    if (pd.reason == PmpDenyReason::kSecureRegular ||
        pd.reason == PmpDenyReason::kPtInsnOutsideSecure) {
      pd = pmp_.check(pa, size, type, AccessKind::kRegular, priv);
      if (pd.reason == PmpDenyReason::kSecureRegular) pd.allowed = true;
    }
  }
  if (!pd.allowed) {
    res.fault = isa::access_fault_for(type);
    pmp_faults_.add();
    return res;
  }

  if (!mem_.is_valid(pa, size)) {
    res.fault = isa::access_fault_for(type);
    return res;
  }

  Cache& cache = (type == AccessType::kExecute) ? icache_ : dcache_;
  if (mem_.is_dram(pa, size)) {
    // Hit latency is folded into the base CPI; only charge the excess.
    res.cycles += Cache::hierarchy_access(cache, l2_ ? &*l2_ : nullptr, pa,
                                          type == AccessType::kWrite);
  } else {
    res.cycles += 20;  // Uncached MMIO access.
  }

  res.pa = pa;
  if (type == AccessType::kWrite) {
    mem_.write(pa, size, store_value);
    // A store to a reserved address breaks the LR/SC reservation.
    if (reservation_ && align_down(*reservation_, 8) == align_down(pa, 8)) {
      reservation_.reset();
    }
  } else {
    res.value = mem_.read(pa, size);
  }
  res.ok = true;
  return res;
}

bool Core::csr_accessible(u32 num, Privilege as, bool write) const {
  // CSR address encodes accessibility: bits [9:8] = lowest privilege,
  // bits [11:10] = 0b11 means read-only.
  const unsigned lowest = (num >> 8) & 0b11;
  if (static_cast<unsigned>(as) < lowest) return false;
  if (write && ((num >> 10) & 0b11) == 0b11) return false;
  return true;
}

std::optional<u64> Core::read_csr(u32 num, Privilege as) {
  if (!csr_accessible(num, as, /*write=*/false)) return std::nullopt;
  switch (num) {
    case csr::kMstatus: return mstatus_;
    case csr::kMisa: {
      // RV64 IMA + S + U. (No C/F/D: FPU disabled as in the prototype.)
      const u64 mxl = u64{2} << 62;
      return mxl | (1 << ('i' - 'a')) | (1 << ('m' - 'a')) | (1 << ('a' - 'a')) |
             (1 << ('s' - 'a')) | (1 << ('u' - 'a'));
    }
    case csr::kMedeleg: return medeleg_;
    case csr::kMideleg: return mideleg_;
    case csr::kMie: return mie_;
    case csr::kMtvec: return mtvec_;
    case csr::kMscratch: return mscratch_;
    case csr::kMepc: return mepc_;
    case csr::kMcause: return mcause_;
    case csr::kMtval: return mtval_;
    case csr::kMip: return mip_;
    case csr::kMhartid: return hartid_;
    case csr::kSstatus: {
      const u64 mask = csr::mstatus::kSie | csr::mstatus::kSpie | csr::mstatus::kSpp |
                       csr::mstatus::kSum | csr::mstatus::kMxr;
      return mstatus_ & mask;
    }
    case csr::kSie: return mie_ & mideleg_;
    case csr::kStvec: return stvec_;
    case csr::kSscratch: return sscratch_;
    case csr::kSepc: return sepc_;
    case csr::kScause: return scause_;
    case csr::kStval: return stval_;
    case csr::kSip: return mip_ & mideleg_;
    case csr::kSatp: return mmu_.satp();
    case csr::kMtimecmp: return mtimecmp_;
    case csr::kCycle: return cycles_;
    case csr::kTime: return cycles_;  // Simple 1:1 timebase.
    case csr::kInstret: return instret_;
    case csr::kPmpcfg0:
    case csr::kPmpcfg2: {
      const unsigned base = (num == csr::kPmpcfg0) ? 0 : 8;
      u64 v = 0;
      for (unsigned i = 0; i < 8; ++i) v |= u64{pmp_.cfg(base + i)} << (8 * i);
      return v;
    }
    default:
      if (num >= csr::kPmpaddr0 && num < csr::kPmpaddr0 + kPmpEntryCount) {
        return pmp_.addr(num - csr::kPmpaddr0);
      }
      return std::nullopt;
  }
}

bool Core::write_csr(u32 num, u64 value, Privilege as) {
  if (!csr_accessible(num, as, /*write=*/true)) return false;
  switch (num) {
    case csr::kMstatus:
      mstatus_ = value;
      return true;
    case csr::kMisa:
      return true;  // WARL: writes ignored.
    case csr::kMedeleg:
      medeleg_ = value;
      return true;
    case csr::kMideleg:
      mideleg_ = value;
      return true;
    case csr::kMie:
      mie_ = value;
      return true;
    case csr::kMtvec:
      mtvec_ = value & ~u64{3};  // Direct mode only.
      return true;
    case csr::kMscratch:
      mscratch_ = value;
      return true;
    case csr::kMepc:
      mepc_ = value & ~u64{1};
      return true;
    case csr::kMcause:
      mcause_ = value;
      return true;
    case csr::kMtval:
      mtval_ = value;
      return true;
    case csr::kMip:
      mip_ = value;
      return true;
    case csr::kSstatus: {
      const u64 mask = csr::mstatus::kSie | csr::mstatus::kSpie | csr::mstatus::kSpp |
                       csr::mstatus::kSum | csr::mstatus::kMxr;
      mstatus_ = (mstatus_ & ~mask) | (value & mask);
      return true;
    }
    case csr::kSie:
      mie_ = (mie_ & ~mideleg_) | (value & mideleg_);
      return true;
    case csr::kStvec:
      stvec_ = value & ~u64{3};
      return true;
    case csr::kSscratch:
      sscratch_ = value;
      return true;
    case csr::kSepc:
      sepc_ = value & ~u64{1};
      return true;
    case csr::kScause:
      scause_ = value;
      return true;
    case csr::kStval:
      stval_ = value;
      return true;
    case csr::kSip:
      mip_ = (mip_ & ~mideleg_) | (value & mideleg_);
      return true;
    case csr::kMtimecmp:
      mtimecmp_ = value;
      mip_ &= ~(u64{1} << csr::irq::kMti);  // Writing mtimecmp clears MTIP.
      return true;
    case csr::kSatp:
      if (!cfg_.ptstore_enabled) {
        // Baseline core: satp.S (bit 59) is a plain ASID bit with no
        // walker-side meaning; keep it but the MMU check is off. We clear it
        // so isa::satp::secure_check() stays false on the baseline.
        value &= ~(u64{1} << 59);
      }
      mmu_.set_satp(value);
      return true;
    case csr::kPmpcfg0:
    case csr::kPmpcfg2: {
      const unsigned base = (num == csr::kPmpcfg0) ? 0 : 8;
      for (unsigned i = 0; i < 8; ++i) {
        u8 b = static_cast<u8>(value >> (8 * i));
        if (!cfg_.ptstore_enabled) b &= ~pmpcfg::kS;  // S-bit is reserved-0.
        pmp_.set_cfg(base + i, b);
      }
      return true;
    }
    default:
      if (num >= csr::kPmpaddr0 && num < csr::kPmpaddr0 + kPmpEntryCount) {
        pmp_.set_addr(num - csr::kPmpaddr0, value);
        return true;
      }
      return false;
  }
}

CoreArchState Core::arch_state() const {
  CoreArchState st;
  st.regs = regs_;
  st.pc = pc_;
  st.priv = priv_;
  st.cycles = cycles_;
  st.instret = instret_;
  st.mstatus = mstatus_;
  st.mtvec = mtvec_;
  st.medeleg = medeleg_;
  st.mideleg = mideleg_;
  st.mie = mie_;
  st.mip = mip_;
  st.mscratch = mscratch_;
  st.mepc = mepc_;
  st.mcause = mcause_;
  st.mtval = mtval_;
  st.stvec = stvec_;
  st.sscratch = sscratch_;
  st.sepc = sepc_;
  st.scause = scause_;
  st.stval = stval_;
  st.satp = mmu_.satp();
  st.mtimecmp = mtimecmp_;
  for (unsigned i = 0; i < kPmpEntryCount; ++i) {
    st.pmp_cfg[i] = pmp_.cfg(i);
    st.pmp_addr[i] = pmp_.addr(i);
  }
  return st;
}

void Core::restore_arch_state(const CoreArchState& st) {
  regs_ = st.regs;
  pc_ = st.pc;
  priv_ = st.priv;
  cycles_ = st.cycles;
  instret_ = st.instret;
  mstatus_ = st.mstatus;
  mtvec_ = st.mtvec;
  medeleg_ = st.medeleg;
  mideleg_ = st.mideleg;
  mie_ = st.mie;
  mip_ = st.mip;
  mscratch_ = st.mscratch;
  mepc_ = st.mepc;
  mcause_ = st.mcause;
  mtval_ = st.mtval;
  stvec_ = st.stvec;
  sscratch_ = st.sscratch;
  sepc_ = st.sepc;
  scause_ = st.scause;
  stval_ = st.stval;
  mmu_.set_satp(st.satp);
  mtimecmp_ = st.mtimecmp;
  // PMP cfg writes respect lock bits; restore addresses first, then cfgs.
  for (unsigned i = 0; i < kPmpEntryCount; ++i) pmp_.set_addr(i, st.pmp_addr[i]);
  for (unsigned i = 0; i < kPmpEntryCount; ++i) pmp_.set_cfg(i, st.pmp_cfg[i]);
  // Reset microarchitectural state to cold: execution after restore is
  // deterministic (and timing-conservative).
  icache_.invalidate_all();
  dcache_.invalidate_all();
  if (l2_) l2_->invalidate_all();
  mmu_.sfence(std::nullopt, std::nullopt);
  reservation_.reset();
  bbcache_.flush_all();
  bb_cur_ = nullptr;
  bb_prev_ = nullptr;
  bb_flush_pending_ = false;
  bb_table_gen_ = mem_.frame_table_gen();
}

StatSet Core::merged_stats() const {
  StatSet out = bank_.snapshot();
  out.set("core.cycles", cycles_);
  out.set("core.instret", instret_);
  if (cfg_.decode_cache) {
    // Host-side counters, reported even at zero exactly when the cache is on.
    // With it off nothing bumps them and the snapshot skips zeros, so those
    // reports stay byte-identical to the classic interpreter's.
    for (const char* name : BlockCache::kCounterNames) out.add(name, 0);
  }
  return out;
}

bool Core::interrupt_pending() const {
  return (mip_ & mie_) != 0;
}

void Core::set_ssip(bool pending) {
  if (pending) {
    mip_ |= u64{1} << csr::irq::kSsi;
  } else {
    mip_ &= ~(u64{1} << csr::irq::kSsi);
  }
}

bool Core::ssip() const { return ((mip_ >> csr::irq::kSsi) & 1) != 0; }

bool Core::take_pending_interrupt() {
  const u64 pending = mip_ & mie_;
  // Priority order per the privileged spec: MTI > MSI > STI > SSI (subset).
  static constexpr unsigned kOrder[] = {csr::irq::kMti, csr::irq::kMsi,
                                        csr::irq::kSti, csr::irq::kSsi};
  for (const unsigned code : kOrder) {
    if (!((pending >> code) & 1)) continue;
    const bool delegated = ((mideleg_ >> code) & 1) != 0;
    if (!delegated) {
      // M-target: taken if we are below M, or in M with MIE set.
      const bool enabled = priv_ != Privilege::kMachine ||
                           (mstatus_ & csr::mstatus::kMie) != 0;
      if (!enabled) continue;
      take_interrupt(code, /*to_supervisor=*/false);
      return true;
    }
    // S-target: never taken while in M; in S requires SIE; in U always.
    if (priv_ == Privilege::kMachine) continue;
    const bool enabled = priv_ == Privilege::kUser ||
                         (mstatus_ & csr::mstatus::kSie) != 0;
    if (!enabled) continue;
    take_interrupt(code, /*to_supervisor=*/true);
    return true;
  }
  return false;
}

void Core::take_interrupt(unsigned code, bool to_supervisor) {
  cycles_ += cfg_.timing.trap_entry;
  interrupts_.add();
  if (telemetry::EventRing* tr = telemetry::tracing()) {
    tr->instant(telemetry::Subsystem::kTrap, "interrupt", cycles_, instret_,
                static_cast<u8>(priv_), code);
  }
  const u64 cause = csr::irq::kCauseInterrupt | code;
  if (to_supervisor) {
    scause_ = cause;
    stval_ = 0;
    sepc_ = pc_;
    mstatus_ = insert_bits(mstatus_, 8, 1, priv_ == Privilege::kSupervisor ? 1 : 0);
    const u64 sie = (mstatus_ & csr::mstatus::kSie) ? 1 : 0;
    mstatus_ = insert_bits(mstatus_, 5, 1, sie);
    mstatus_ &= ~csr::mstatus::kSie;
    priv_ = Privilege::kSupervisor;
    if (sintr_hook_ && sintr_hook_(*this, code)) {
      do_sret();
      return;
    }
    pc_ = stvec_;
  } else {
    mcause_ = cause;
    mtval_ = 0;
    mepc_ = pc_;
    mstatus_ = insert_bits(mstatus_, csr::mstatus::kMppShift, 2,
                           static_cast<u64>(priv_));
    const u64 mie = (mstatus_ & csr::mstatus::kMie) ? 1 : 0;
    mstatus_ = insert_bits(mstatus_, 7, 1, mie);
    mstatus_ &= ~csr::mstatus::kMie;
    priv_ = Privilege::kMachine;
    pc_ = mtvec_;
  }
}

void Core::take_trap(TrapCause cause, u64 tval) {
  // A trap inside a block run: the hooks below must see its fetches.
  commit_fetch_batch();
  const u64 code = static_cast<u64>(cause);
  const bool delegate = priv_ != Privilege::kMachine && (medeleg_ >> code) & 1;
  cycles_ += cfg_.timing.trap_entry;
  traps_.add();
  if (telemetry::EventRing* tr = telemetry::tracing()) {
    tr->instant(telemetry::Subsystem::kTrap, "trap", cycles_, instret_,
                static_cast<u8>(priv_), code);
  }

  if (delegate) {
    scause_ = code;
    stval_ = tval;
    sepc_ = pc_;
    // sstatus.SPP/SPIE bookkeeping.
    mstatus_ = insert_bits(mstatus_, 8, 1, priv_ == Privilege::kSupervisor ? 1 : 0);
    const u64 sie = (mstatus_ & csr::mstatus::kSie) ? 1 : 0;
    mstatus_ = insert_bits(mstatus_, 5, 1, sie);
    mstatus_ &= ~csr::mstatus::kSie;
    priv_ = Privilege::kSupervisor;

    if (strap_hook_) {
      const TrapHookResult hr = strap_hook_(*this, cause, tval);
      if (hr.handled) {
        // Kernel model handled it in host code; return like sret.
        do_sret();
        return;
      }
    }
    pc_ = stvec_;
  } else {
    mcause_ = code;
    mtval_ = tval;
    mepc_ = pc_;
    mstatus_ = insert_bits(mstatus_, csr::mstatus::kMppShift, 2,
                           static_cast<u64>(priv_));
    const u64 mie = (mstatus_ & csr::mstatus::kMie) ? 1 : 0;
    mstatus_ = insert_bits(mstatus_, 7, 1, mie);
    mstatus_ &= ~csr::mstatus::kMie;
    priv_ = Privilege::kMachine;
    pc_ = mtvec_;
  }
}

void Core::do_sret() {
  const bool spp = (mstatus_ & csr::mstatus::kSpp) != 0;
  const u64 spie = (mstatus_ & csr::mstatus::kSpie) ? 1 : 0;
  mstatus_ = insert_bits(mstatus_, 1, 1, spie);   // SIE = SPIE
  mstatus_ |= csr::mstatus::kSpie;
  mstatus_ &= ~csr::mstatus::kSpp;
  priv_ = spp ? Privilege::kSupervisor : Privilege::kUser;
  pc_ = sepc_;
  cycles_ += cfg_.timing.trap_return;
}

void Core::do_mret() {
  const u64 mpp = bits(mstatus_, csr::mstatus::kMppShift, 2);
  const u64 mpie = (mstatus_ & csr::mstatus::kMpie) ? 1 : 0;
  mstatus_ = insert_bits(mstatus_, 3, 1, mpie);  // MIE = MPIE
  mstatus_ |= csr::mstatus::kMpie;
  mstatus_ = insert_bits(mstatus_, csr::mstatus::kMppShift, 2, 0);
  priv_ = static_cast<Privilege>(mpp == 2 ? 0 : mpp);  // 2 is reserved.
  pc_ = mepc_;
  cycles_ += cfg_.timing.trap_return;
}

StepResult Core::raise(TrapCause cause, u64 tval) {
  take_trap(cause, tval);
  return {StopReason::kTrapped, cause};
}

StepResult Core::run(u64 max_insts) {
  u64 budget = max_insts;
  while (budget != 0) {
    const StepResult r = run_block(budget);
    if (r.stop == StopReason::kEbreakHalt || r.stop == StopReason::kWfi) return r;
  }
  return {StopReason::kInstLimit, TrapCause::kNone};
}

}  // namespace ptstore
