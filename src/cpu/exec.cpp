// Instruction execution for the interpreter core.
#include "common/bits.h"
#include "cpu/core.h"
#include "telemetry/trace.h"

namespace ptstore {

using isa::Inst;
using isa::Op;
using isa::TrapCause;
namespace csr = isa::csr;

namespace {

u64 sext32(u64 v) { return static_cast<u64>(static_cast<i64>(static_cast<i32>(v))); }

u64 mulh_ss(u64 a, u64 b) {
  return static_cast<u64>((static_cast<__int128>(static_cast<i64>(a)) *
                           static_cast<__int128>(static_cast<i64>(b))) >> 64);
}
u64 mulh_su(u64 a, u64 b) {
  return static_cast<u64>((static_cast<__int128>(static_cast<i64>(a)) *
                           static_cast<unsigned __int128>(b)) >> 64);
}
u64 mulh_uu(u64 a, u64 b) {
  return static_cast<u64>((static_cast<unsigned __int128>(a) *
                           static_cast<unsigned __int128>(b)) >> 64);
}

i64 div_signed(i64 a, i64 b) {
  if (b == 0) return -1;
  if (a == INT64_MIN && b == -1) return INT64_MIN;
  return a / b;
}
i64 rem_signed(i64 a, i64 b) {
  if (b == 0) return a;
  if (a == INT64_MIN && b == -1) return 0;
  return a % b;
}

}  // namespace

StepResult Core::step() {
  if (maybe_take_interrupt()) {
    return {StopReason::kTrapped, TrapCause::kNone};
  }
  cycles_ += cfg_.timing.base_cpi;
  if (cfg_.decode_cache) return step_cached();
  return step_fetch_decode(nullptr);
}

StepResult Core::step_fetch_decode(const TranslateResult* pre) {
  // With the C extension IALIGN is 16: fetch the low parcel first, and the
  // high parcel only when the low one announces a 32-bit encoding.
  const MemAccessResult lo =
      access_with(pc_, 2, AccessType::kExecute, AccessKind::kRegular, priv_, 0, pre);
  cycles_ += lo.cycles;
  if (!lo.ok) return raise(lo.fault, pc_);
  u32 word = static_cast<u32>(lo.value);
  if ((word & 0b11) == 0b11) {
    const MemAccessResult hi =
        access(pc_ + 2, 2, AccessType::kExecute, AccessKind::kRegular);
    cycles_ += hi.cycles;
    if (!hi.ok) return raise(hi.fault, pc_ + 2);
    word |= static_cast<u32>(hi.value) << 16;
  }

  const Inst in = isa::decode_any(word);
  if (trace_hook_) trace_hook_(*this, pc_, in);
  if (in.op == Op::kIllegal) return raise(TrapCause::kIllegalInst, word);
  if (in.is_pt_access() && !cfg_.ptstore_enabled) {
    // Baseline core: the custom opcodes are not implemented.
    return raise(TrapCause::kIllegalInst, word);
  }

  const StepResult r = execute(in);
  if (r.stop != StopReason::kTrapped) ++instret_;
  return r;
}

StepResult Core::execute(const Inst& in) {
  switch (in.op) {
    case Op::kLb: case Op::kLh: case Op::kLw: case Op::kLd:
    case Op::kLbu: case Op::kLhu: case Op::kLwu: case Op::kLdPt:
      return exec_mem(in, /*store=*/false);
    case Op::kSb: case Op::kSh: case Op::kSw: case Op::kSd: case Op::kSdPt:
      return exec_mem(in, /*store=*/true);
    case Op::kLrW: case Op::kScW: case Op::kAmoSwapW: case Op::kAmoAddW:
    case Op::kAmoXorW: case Op::kAmoAndW: case Op::kAmoOrW:
    case Op::kLrD: case Op::kScD: case Op::kAmoSwapD: case Op::kAmoAddD:
    case Op::kAmoXorD: case Op::kAmoAndD: case Op::kAmoOrD:
      return exec_amo(in);
    case Op::kEcall:
    case Op::kEbreak:
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
    case Op::kMret: case Op::kSret: case Op::kWfi:
    case Op::kSfenceVma: case Op::kFence: case Op::kFenceI:
      return exec_system(in);
    default:
      return exec_alu(in);
  }
}

StepResult Core::exec_alu(const Inst& in) {
  const u64 rs1 = reg(in.rs1);
  const u64 rs2 = reg(in.rs2);
  const u64 imm = static_cast<u64>(in.imm);
  u64 rd = 0;
  bool write_rd = true;
  u64 next_pc = pc_ + in.len;

  switch (in.op) {
    case Op::kLui: rd = imm; break;
    case Op::kAuipc: rd = pc_ + imm; break;
    case Op::kJal:
      rd = pc_ + in.len;
      next_pc = pc_ + imm;
      cycles_ += cfg_.bpred.enabled ? bpred_.resolve_jump(pc_, next_pc)
                                    : cfg_.timing.jump_penalty;
      // Shadow call stack: `jal ra/t0` is a call under the RISC-V link
      // register convention. Pure observation — no cycles charged.
      if (in.rd == 1 || in.rd == 5) {
        if (telemetry::Profiler* p = telemetry::profiling()) {
          p->on_call(next_pc, cycles_, static_cast<u8>(priv_));
        }
      }
      break;
    case Op::kJalr:
      rd = pc_ + in.len;
      next_pc = (rs1 + imm) & ~u64{1};
      cycles_ += cfg_.bpred.enabled ? bpred_.resolve_jump(pc_, next_pc)
                                    : cfg_.timing.jump_penalty;
      if (telemetry::Profiler* p = telemetry::profiling()) {
        if (in.rd == 1 || in.rd == 5) {
          p->on_call(next_pc, cycles_, static_cast<u8>(priv_));
        } else if (in.rd == 0 && (in.rs1 == 1 || in.rs1 == 5)) {
          p->on_ret(cycles_, static_cast<u8>(priv_));
        }
      }
      break;
    case Op::kBeq: case Op::kBne: case Op::kBlt:
    case Op::kBge: case Op::kBltu: case Op::kBgeu: {
      bool taken = false;
      switch (in.op) {
        case Op::kBeq: taken = rs1 == rs2; break;
        case Op::kBne: taken = rs1 != rs2; break;
        case Op::kBlt: taken = static_cast<i64>(rs1) < static_cast<i64>(rs2); break;
        case Op::kBge: taken = static_cast<i64>(rs1) >= static_cast<i64>(rs2); break;
        case Op::kBltu: taken = rs1 < rs2; break;
        case Op::kBgeu: taken = rs1 >= rs2; break;
        default: break;
      }
      write_rd = false;
      if (taken) next_pc = pc_ + imm;
      if (cfg_.bpred.enabled) {
        cycles_ += bpred_.resolve_branch(pc_, taken);
      } else if (taken) {
        cycles_ += cfg_.timing.branch_taken_penalty;
      }
      break;
    }
    case Op::kAddi: rd = rs1 + imm; break;
    case Op::kSlti: rd = static_cast<i64>(rs1) < in.imm ? 1 : 0; break;
    case Op::kSltiu: rd = rs1 < imm ? 1 : 0; break;
    case Op::kXori: rd = rs1 ^ imm; break;
    case Op::kOri: rd = rs1 | imm; break;
    case Op::kAndi: rd = rs1 & imm; break;
    case Op::kSlli: rd = rs1 << (imm & 63); break;
    case Op::kSrli: rd = rs1 >> (imm & 63); break;
    case Op::kSrai: rd = static_cast<u64>(static_cast<i64>(rs1) >> (imm & 63)); break;
    case Op::kAdd: rd = rs1 + rs2; break;
    case Op::kSub: rd = rs1 - rs2; break;
    case Op::kSll: rd = rs1 << (rs2 & 63); break;
    case Op::kSlt: rd = static_cast<i64>(rs1) < static_cast<i64>(rs2) ? 1 : 0; break;
    case Op::kSltu: rd = rs1 < rs2 ? 1 : 0; break;
    case Op::kXor: rd = rs1 ^ rs2; break;
    case Op::kSrl: rd = rs1 >> (rs2 & 63); break;
    case Op::kSra: rd = static_cast<u64>(static_cast<i64>(rs1) >> (rs2 & 63)); break;
    case Op::kOr: rd = rs1 | rs2; break;
    case Op::kAnd: rd = rs1 & rs2; break;
    case Op::kAddiw: rd = sext32(rs1 + imm); break;
    case Op::kSlliw: rd = sext32(rs1 << (imm & 31)); break;
    case Op::kSrliw: rd = sext32(static_cast<u32>(rs1) >> (imm & 31)); break;
    case Op::kSraiw:
      rd = static_cast<u64>(static_cast<i64>(static_cast<i32>(rs1) >> (imm & 31)));
      break;
    case Op::kAddw: rd = sext32(rs1 + rs2); break;
    case Op::kSubw: rd = sext32(rs1 - rs2); break;
    case Op::kSllw: rd = sext32(rs1 << (rs2 & 31)); break;
    case Op::kSrlw: rd = sext32(static_cast<u32>(rs1) >> (rs2 & 31)); break;
    case Op::kSraw:
      rd = static_cast<u64>(static_cast<i64>(static_cast<i32>(rs1) >> (rs2 & 31)));
      break;
    case Op::kMul: rd = rs1 * rs2; cycles_ += cfg_.timing.mul_extra; break;
    case Op::kMulh: rd = mulh_ss(rs1, rs2); cycles_ += cfg_.timing.mul_extra; break;
    case Op::kMulhsu: rd = mulh_su(rs1, rs2); cycles_ += cfg_.timing.mul_extra; break;
    case Op::kMulhu: rd = mulh_uu(rs1, rs2); cycles_ += cfg_.timing.mul_extra; break;
    case Op::kDiv:
      rd = static_cast<u64>(div_signed(static_cast<i64>(rs1), static_cast<i64>(rs2)));
      cycles_ += cfg_.timing.div_extra;
      break;
    case Op::kDivu:
      rd = rs2 == 0 ? ~u64{0} : rs1 / rs2;
      cycles_ += cfg_.timing.div_extra;
      break;
    case Op::kRem:
      rd = static_cast<u64>(rem_signed(static_cast<i64>(rs1), static_cast<i64>(rs2)));
      cycles_ += cfg_.timing.div_extra;
      break;
    case Op::kRemu:
      rd = rs2 == 0 ? rs1 : rs1 % rs2;
      cycles_ += cfg_.timing.div_extra;
      break;
    case Op::kMulw: rd = sext32(rs1 * rs2); cycles_ += cfg_.timing.mul_extra; break;
    case Op::kDivw:
      rd = static_cast<u64>(static_cast<i64>(static_cast<i32>(
          div_signed(static_cast<i32>(rs1), static_cast<i32>(rs2)))));
      cycles_ += cfg_.timing.div_extra;
      break;
    case Op::kDivuw: {
      const u32 a = static_cast<u32>(rs1);
      const u32 b = static_cast<u32>(rs2);
      rd = sext32(b == 0 ? ~u32{0} : a / b);
      cycles_ += cfg_.timing.div_extra;
      break;
    }
    case Op::kRemw:
      rd = static_cast<u64>(static_cast<i64>(static_cast<i32>(
          rem_signed(static_cast<i32>(rs1), static_cast<i32>(rs2)))));
      cycles_ += cfg_.timing.div_extra;
      break;
    case Op::kRemuw: {
      const u32 a = static_cast<u32>(rs1);
      const u32 b = static_cast<u32>(rs2);
      rd = sext32(b == 0 ? a : a % b);
      cycles_ += cfg_.timing.div_extra;
      break;
    }
    default:
      return raise(TrapCause::kIllegalInst, in.raw);
  }

  if (write_rd) set_reg(in.rd, rd);
  pc_ = next_pc;
  return {};
}

StepResult Core::exec_mem(const Inst& in, bool store) {
  const VirtAddr va = reg(in.rs1) + static_cast<u64>(in.imm);
  unsigned size = 8;
  bool sign = false;
  switch (in.op) {
    case Op::kLb: case Op::kSb: size = 1; sign = true; break;
    case Op::kLh: case Op::kSh: size = 2; sign = true; break;
    case Op::kLw: case Op::kSw: size = 4; sign = true; break;
    case Op::kLbu: size = 1; break;
    case Op::kLhu: size = 2; break;
    case Op::kLwu: size = 4; break;
    default: break;  // ld/sd/ld.pt/sd.pt are 8 bytes.
  }

  const AccessKind kind = in.is_pt_access() ? AccessKind::kPtInsn : AccessKind::kRegular;
  if (in.is_pt_access() && priv_ == Privilege::kUser) {
    // The secure-region instructions are kernel tools; executing them in
    // U-mode is an illegal instruction (design choice, DESIGN.md §5).
    return raise(TrapCause::kIllegalInst, in.raw);
  }

  if (store) {
    const MemAccessResult r = access(va, size, AccessType::kWrite, kind, reg(in.rs2));
    cycles_ += r.cycles;
    if (!r.ok) return raise(r.fault, va);
    if (kind == AccessKind::kPtInsn) {
      sd_pt_.add();
      if (telemetry::EventRing* tr = telemetry::tracing()) {
        tr->instant(telemetry::Subsystem::kPtInsn, "sd.pt", cycles_, instret_,
                    static_cast<u8>(priv_), va);
      }
    }
  } else {
    const MemAccessResult r = access(va, size, AccessType::kRead, kind);
    cycles_ += r.cycles;
    if (!r.ok) return raise(r.fault, va);
    u64 v = r.value;
    if (sign) v = static_cast<u64>(sign_extend(v, 8 * size));
    set_reg(in.rd, v);
    if (kind == AccessKind::kPtInsn) {
      ld_pt_.add();
      if (telemetry::EventRing* tr = telemetry::tracing()) {
        tr->instant(telemetry::Subsystem::kPtInsn, "ld.pt", cycles_, instret_,
                    static_cast<u8>(priv_), va);
      }
    }
  }
  pc_ += in.len;
  return {};
}

StepResult Core::exec_amo(const Inst& in) {
  const VirtAddr va = reg(in.rs1);
  const bool word = (in.op == Op::kLrW || in.op == Op::kScW || in.op == Op::kAmoSwapW ||
                     in.op == Op::kAmoAddW || in.op == Op::kAmoXorW ||
                     in.op == Op::kAmoAndW || in.op == Op::kAmoOrW);
  const unsigned size = word ? 4 : 8;
  cycles_ += cfg_.timing.amo_extra;

  if (in.op == Op::kLrW || in.op == Op::kLrD) {
    const MemAccessResult r = access(va, size, AccessType::kRead, AccessKind::kRegular);
    cycles_ += r.cycles;
    if (!r.ok) return raise(r.fault, va);
    set_reg(in.rd, word ? sext32(r.value) : r.value);
    reservation_ = r.pa;
    pc_ += 4;
    return {};
  }
  if (in.op == Op::kScW || in.op == Op::kScD) {
    // Translate first so SC faults behave like stores.
    const MemAccessResult probe = access(va, size, AccessType::kRead, AccessKind::kRegular);
    cycles_ += probe.cycles;
    if (!probe.ok) return raise(isa::TrapCause::kStoreAccessFault, va);
    const bool match = reservation_ && align_down(*reservation_, 8) == align_down(probe.pa, 8);
    reservation_.reset();
    if (match) {
      const MemAccessResult w =
          access(va, size, AccessType::kWrite, AccessKind::kRegular, reg(in.rs2));
      cycles_ += w.cycles;
      if (!w.ok) return raise(w.fault, va);
      set_reg(in.rd, 0);
    } else {
      set_reg(in.rd, 1);
    }
    pc_ += 4;
    return {};
  }

  // Read-modify-write AMOs.
  const MemAccessResult r = access(va, size, AccessType::kRead, AccessKind::kRegular);
  cycles_ += r.cycles;
  if (!r.ok) return raise(r.fault == TrapCause::kLoadAccessFault
                              ? TrapCause::kStoreAccessFault
                              : r.fault,
                          va);
  const u64 old = word ? sext32(r.value) : r.value;
  const u64 rhs = reg(in.rs2);
  u64 result = 0;
  switch (in.op) {
    case Op::kAmoSwapW: case Op::kAmoSwapD: result = rhs; break;
    case Op::kAmoAddW: case Op::kAmoAddD: result = old + rhs; break;
    case Op::kAmoXorW: case Op::kAmoXorD: result = old ^ rhs; break;
    case Op::kAmoAndW: case Op::kAmoAndD: result = old & rhs; break;
    case Op::kAmoOrW: case Op::kAmoOrD: result = old | rhs; break;
    default: return raise(TrapCause::kIllegalInst, in.raw);
  }
  const MemAccessResult w = access(va, size, AccessType::kWrite, AccessKind::kRegular, result);
  cycles_ += w.cycles;
  if (!w.ok) return raise(w.fault, va);
  set_reg(in.rd, old);
  pc_ += in.len;
  return {};
}

StepResult Core::exec_system(const Inst& in) {
  switch (in.op) {
    case Op::kEcall:
      switch (priv_) {
        case Privilege::kUser: return raise(TrapCause::kEcallFromU, 0);
        case Privilege::kSupervisor: return raise(TrapCause::kEcallFromS, 0);
        case Privilege::kMachine: return raise(TrapCause::kEcallFromM, 0);
      }
      return raise(TrapCause::kIllegalInst, in.raw);
    case Op::kEbreak: {
      // With no M-mode handler installed, ebreak halts — the convention test
      // programs use to stop cleanly.
      const bool delegated = (medeleg_ >> static_cast<u64>(TrapCause::kBreakpoint)) & 1;
      if (mtvec_ == 0 && !(delegated && priv_ != Privilege::kMachine)) {
        return {StopReason::kEbreakHalt, TrapCause::kNone};
      }
      return raise(TrapCause::kBreakpoint, pc_);
    }
    case Op::kWfi:
      if (priv_ == Privilege::kUser) return raise(TrapCause::kIllegalInst, in.raw);
      update_timer_pending();
      if (interrupt_pending()) {
        // An interrupt is pending: wfi completes immediately.
        pc_ += in.len;
        return {};
      }
      return {StopReason::kWfi, TrapCause::kNone};
    case Op::kMret:
      if (priv_ != Privilege::kMachine) return raise(TrapCause::kIllegalInst, in.raw);
      do_mret();
      return {};
    case Op::kSret:
      if (priv_ == Privilege::kUser) return raise(TrapCause::kIllegalInst, in.raw);
      do_sret();
      return {};
    case Op::kSfenceVma: {
      if (priv_ == Privilege::kUser) return raise(TrapCause::kIllegalInst, in.raw);
      std::optional<VirtAddr> va;
      std::optional<u16> asid;
      if (in.rs1 != 0) va = reg(in.rs1);
      if (in.rs2 != 0) asid = static_cast<u16>(reg(in.rs2));
      mmu_.sfence(va, asid);
      cycles_ += cfg_.timing.sfence_extra;
      pc_ += in.len;
      return {};
    }
    case Op::kFence:
      pc_ += in.len;
      return {};
    case Op::kFenceI:
      cycles_ += cfg_.timing.fence_extra;
      // Deferred so a block currently dispatching stays alive; applied at
      // the top of the next cached step.
      bb_flush_pending_ = true;
      pc_ += in.len;
      return {};
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci: {
      const u32 num = static_cast<u32>(in.imm);
      const bool is_imm = (in.op == Op::kCsrrwi || in.op == Op::kCsrrsi ||
                           in.op == Op::kCsrrci);
      const u64 operand = is_imm ? in.rs1 : reg(in.rs1);
      const std::optional<u64> old = read_csr(num, priv_);
      if (!old) return raise(TrapCause::kIllegalInst, in.raw);
      cycles_ += cfg_.timing.csr_extra;

      u64 next = *old;
      bool do_write = true;
      switch (in.op) {
        case Op::kCsrrw: case Op::kCsrrwi:
          next = operand;
          break;
        case Op::kCsrrs: case Op::kCsrrsi:
          next = *old | operand;
          if (is_imm) do_write = operand != 0;
          else do_write = in.rs1 != 0;
          break;
        case Op::kCsrrc: case Op::kCsrrci:
          next = *old & ~operand;
          if (is_imm) do_write = operand != 0;
          else do_write = in.rs1 != 0;
          break;
        default: break;
      }
      if (do_write && !write_csr(num, next, priv_)) {
        return raise(TrapCause::kIllegalInst, in.raw);
      }
      set_reg(in.rd, *old);
      pc_ += in.len;
      return {};
    }
    default:
      return raise(TrapCause::kIllegalInst, in.raw);
  }
}

}  // namespace ptstore
