#include "gen.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>

#include "common/rng.h"
#include "harness/fleet.h"
#include "isa/assembler.h"
#include "kernel/kernel.h"
#include "kernel/pagetable.h"

namespace perfbench {

using ptstore::isa::Assembler;
using ptstore::isa::Reg;

// ---------------------------------------------------------------------------
// Guest programs.

GuestParams guest_params(u64 seed, unsigned slot) {
  static constexpr u64 kFootprint[kGuestPrograms] = {
      ptstore::KiB(8), ptstore::KiB(8), ptstore::MiB(1), ptstore::MiB(2)};
  static constexpr u64 kIterations[kGuestPrograms] = {260'000, 260'000, 180'000,
                                                      150'000};
  ptstore::Rng r(ptstore::harness::shard_seed(seed, 100 + slot));
  GuestParams p;
  p.footprint_bytes = kFootprint[slot % kGuestPrograms];
  p.iterations = kIterations[slot % kGuestPrograms];
  p.x0 = r.next_u64();
  p.mul = r.next_u64() | 1;
  p.inc = r.next_u64() | 1;
  p.idx_shift = 24 + static_cast<unsigned>(r.next_below(16));
  p.branch_bit = 3 + static_cast<unsigned>(r.next_below(8));
  return p;
}

namespace {

/// Words emitted between two assembler positions.
u64 words(u64 from_pc, u64 to_pc) { return (to_pc - from_pc) / 4; }

}  // namespace

// Register use: s0 array base, s1 index mask, s2 loop counter, s3 LCG state,
// s4 checksum, s5/s6 LCG constants, t0-t6 temporaries.
//
//   init:  for i in [0, n): x = x*mul + inc; a[i] = x
//   loop:  for k = iters..1:
//            x = x*mul + inc; acc ^= mulhu(x, mul)
//            idx = (x >> shift) & mask; v = a[idx]
//            if v & (1 << bit): acc += v ^ k
//            else:              acc -= v >> 3; acc ^= v / (k | 1)
//            a[idx] = v + acc
//   exit(acc)
GuestProgram build_guest_program(const GuestParams& p, VirtAddr entry,
                                 VirtAddr data_base) {
  const u64 nwords = p.footprint_bytes / 8;
  Assembler a(entry);
  a.li(Reg::kS0, data_base);
  a.li(Reg::kS1, nwords - 1);
  a.li(Reg::kS3, p.x0);
  a.li(Reg::kS5, p.mul);
  a.li(Reg::kS6, p.inc);
  a.li(Reg::kS4, 0);
  a.li(Reg::kT0, 0);
  a.li(Reg::kT1, nwords);
  const u64 prologue_end = a.pc();

  const Assembler::Label init = a.make_label();
  a.bind(init);
  a.mul(Reg::kS3, Reg::kS3, Reg::kS5);
  a.add(Reg::kS3, Reg::kS3, Reg::kS6);
  a.slli(Reg::kT2, Reg::kT0, 3);
  a.add(Reg::kT2, Reg::kT2, Reg::kS0);
  a.sd(Reg::kS3, Reg::kT2, 0);
  a.addi(Reg::kT0, Reg::kT0, 1);
  a.bltu(Reg::kT0, Reg::kT1, init);
  const u64 init_end = a.pc();

  a.li(Reg::kS2, p.iterations);
  const Assembler::Label loop = a.make_label();
  const Assembler::Label even = a.make_label();
  const Assembler::Label join = a.make_label();
  const u64 loop_start = a.pc();
  a.bind(loop);
  a.mul(Reg::kS3, Reg::kS3, Reg::kS5);
  a.add(Reg::kS3, Reg::kS3, Reg::kS6);
  a.mulhu(Reg::kT6, Reg::kS3, Reg::kS5);
  a.xor_(Reg::kS4, Reg::kS4, Reg::kT6);
  a.srli(Reg::kT0, Reg::kS3, p.idx_shift);
  a.and_(Reg::kT0, Reg::kT0, Reg::kS1);
  a.slli(Reg::kT0, Reg::kT0, 3);
  a.add(Reg::kT0, Reg::kT0, Reg::kS0);
  a.ld(Reg::kT1, Reg::kT0, 0);
  a.andi(Reg::kT2, Reg::kT1, static_cast<ptstore::i64>(u64{1} << p.branch_bit));
  a.beq(Reg::kT2, Reg::kZero, even);
  const u64 head_end = a.pc();
  a.xor_(Reg::kT3, Reg::kT1, Reg::kS2);
  a.add(Reg::kS4, Reg::kS4, Reg::kT3);
  a.j(join);
  const u64 odd_end = a.pc();
  a.bind(even);
  a.srli(Reg::kT3, Reg::kT1, 3);
  a.sub(Reg::kS4, Reg::kS4, Reg::kT3);
  a.ori(Reg::kT4, Reg::kS2, 1);
  a.divu(Reg::kT5, Reg::kT1, Reg::kT4);
  a.xor_(Reg::kS4, Reg::kS4, Reg::kT5);
  const u64 even_end = a.pc();
  a.bind(join);
  a.add(Reg::kT1, Reg::kT1, Reg::kS4);
  a.sd(Reg::kT1, Reg::kT0, 0);
  a.addi(Reg::kS2, Reg::kS2, -1);
  a.bne(Reg::kS2, Reg::kZero, loop);
  const u64 loop_end = a.pc();

  a.mv(Reg::kA0, Reg::kS4);
  a.li(Reg::kA7, 93);  // exit
  a.ecall();
  const u64 epilogue_end = a.pc();

  GuestProgram g;
  g.params = p;
  g.code = a.finish();

  // Host reference: the same computation, counting each executed block.
  std::vector<u64> arr(nwords);
  u64 x = p.x0;
  for (u64 i = 0; i < nwords; ++i) {
    x = x * p.mul + p.inc;
    arr[i] = x;
  }
  u64 acc = 0;
  u64 odd = 0;
  for (u64 k = p.iterations; k != 0; --k) {
    x = x * p.mul + p.inc;
    acc ^= static_cast<u64>((static_cast<unsigned __int128>(x) * p.mul) >> 64);
    u64& slot = arr[(x >> p.idx_shift) & (nwords - 1)];
    const u64 v = slot;
    if (v & (u64{1} << p.branch_bit)) {
      acc += v ^ k;
      ++odd;
    } else {
      acc -= v >> 3;
      acc ^= v / (k | 1);
    }
    slot = v + acc;
  }
  g.expected_exit = acc;
  g.expected_insts = words(entry, prologue_end) +
                     nwords * words(prologue_end, init_end) +
                     words(init_end, loop_start) +
                     p.iterations * (words(loop_start, head_end) +
                                     words(even_end, loop_end)) +
                     odd * words(head_end, odd_end) +
                     (p.iterations - odd) * words(odd_end, even_end) +
                     words(loop_end, epilogue_end);
  return g;
}

// ---------------------------------------------------------------------------
// Kernel-op stream.

const char* to_string(ChurnOp::Kind k) {
  switch (k) {
    case ChurnOp::Kind::kFork: return "fork";
    case ChurnOp::Kind::kExit: return "exit";
    case ChurnOp::Kind::kSwitch: return "switch_to";
    case ChurnOp::Kind::kSyscall: return "syscall";
    case ChurnOp::Kind::kMmap: return "add_vma";
    case ChurnOp::Kind::kMunmap: return "remove_vma";
    case ChurnOp::Kind::kFaultWrite: return "fault";
    case ChurnOp::Kind::kReadMapped: return "access";
  }
  return "?";
}

namespace {

using Kind = ChurnOp::Kind;
using ptstore::Sys;

/// Direct kernel ops of the figure workloads per 10000, as `perfbench
/// --op-mix` measures them (perfbench/README.md, "Where the op mix comes
/// from"). The suites exec only inside fork+execve syscalls, so there is no
/// direct exec. add_vma/remove_vma are not planned: a fault that finds no room
/// maps a fresh region first, as run_spec does.
constexpr std::pair<Kind, u64> kOpMix[] = {
    {Kind::kFork, 1000},    {Kind::kExit, 1000},       {Kind::kSwitch, 1581},
    {Kind::kSyscall, 4061}, {Kind::kFaultWrite, 2191}, {Kind::kReadMapped, 166}};

/// Syscalls per 10000, same source.
constexpr std::pair<Sys, u64> kSysMix[] = {
    {Sys::kNull, 192},       {Sys::kRead, 1669},     {Sys::kWrite, 470},
    {Sys::kStat, 470},       {Sys::kFstat, 192},     {Sys::kOpenClose, 509},
    {Sys::kSelect, 192},     {Sys::kSigInstall, 192}, {Sys::kSigHandle, 192},
    {Sys::kPipe, 192},       {Sys::kFork, 192},      {Sys::kForkExec, 192},
    {Sys::kMmap, 248},       {Sys::kBrk, 1207},      {Sys::kSendRecv, 3679},
    {Sys::kAcceptClose, 209}};

/// `n` values in a {value, weight} table's proportions, in a seeded random
/// order. Every seed plans the same number of each value, so seeds differ
/// only in order and subjects, and every seed does about the same work.
template <typename T, size_t N>
std::vector<T> plan(ptstore::Rng& rng, const std::pair<T, u64> (&table)[N], size_t n) {
  u64 total = 0;
  for (const auto& [v, w] : table) total += w;
  std::vector<T> out;
  u64 cum = 0;
  for (const auto& [v, w] : table) {  // Rounded at cumulative weights: n in all.
    cum += w;
    out.resize((n * cum + total / 2) / total, v);
  }
  for (size_t i = out.size(); i > 1; --i) std::swap(out[i - 1], out[rng.next_below(i)]);
  return out;
}

constexpr VirtAddr kRegionBase = ptstore::kUserSpaceBase + ptstore::GiB(8);
/// Pages per mapped region: run_spec's churn region.
constexpr u64 kRegionPages = 512;
constexpr u64 kRegionBytes = kRegionPages * ptstore::kPageSize;
constexpr u32 kNoSlot = ~u32{0};

/// The generator's model of one process: its current region and the pages
/// it has faulted in.
struct ProcModel {
  VirtAddr region = 0;          ///< 0 = none mapped.
  u64 used = 0;                 ///< Pages of `region` faulted in so far.
  u64 next_region = 0;          ///< Fresh-region VA allocator.
  std::set<VirtAddr> present;   ///< Faulted-in pages.
};

class ChurnModel {
 public:
  explicit ChurnModel(u64 seed) : rng_(seed) {
    procs_.emplace_back();
    live_.push_back(0);
  }

  ChurnStream generate(size_t n_ops) {
    const std::vector<Kind> kinds = plan(rng_, kOpMix, n_ops);
    sys_plan_ = plan(rng_, kSysMix,
                     static_cast<size_t>(std::count(kinds.begin(), kinds.end(), Kind::kSyscall)));
    emit_switch(0, 0);
    for (size_t i = 0; i < kinds.size(); ++i) {
      // Fork-stress order: the first half creates without reaping.
      step(kinds[i], i < kinds.size() / 2);
      if (live_.size() > s_.peak_live) {
        s_.peak_live = static_cast<u32>(live_.size());
        s_.peak_op = s_.ops.size();
      }
    }
    // Teardown: park both harts on init, then exit everything else.
    emit_switch(0, 0);
    emit_switch(1, 0);
    while (live_.size() > 1) emit_exit(live_.back());
    s_.slots = static_cast<u32>(procs_.size());
    return std::move(s_);
  }

 private:
  /// One planned op. The subject of a syscall, fault or read is the process
  /// running on the current hart; an op that cannot apply (a fault in init,
  /// whose page tables must stay at boot size, or a read with no page
  /// faulted in) is dropped.
  void step(Kind kind, bool growing) {
    const u32 cur = cur_[hart_];
    switch (kind) {
      case Kind::kFork:
        emit_fork(0);  // Every fork in the suites is a fork of init.
        break;
      case Kind::kExit:
        if (!growing) {
          const u32 victim = pick_idle();
          if (victim != kNoSlot) emit_exit(victim);
        }
        break;
      case Kind::kSwitch: {
        const u8 hart = static_cast<u8>(rng_.next_below(2));
        const u32 slot =
            live_.size() > 1 ? live_[1 + rng_.next_below(live_.size() - 1)] : 0;
        emit_switch(hart, slot);
        break;
      }
      case Kind::kSyscall: {
        ChurnOp op{Kind::kSyscall, hart_, 0, cur, 0, 0, 0};
        op.sys = static_cast<u8>(sys_plan_[next_sys_++]);
        s_.ops.push_back(op);
        break;
      }
      case Kind::kFaultWrite:
        if (cur != 0) emit_fault(cur);
        break;
      case Kind::kReadMapped: {
        const ProcModel& p = procs_[cur];
        if (cur == 0 || p.present.empty()) break;
        auto it = p.present.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(rng_.next_below(p.present.size())));
        const VirtAddr at = *it + 8 * rng_.next_below(ptstore::kPageSize / 8);
        s_.ops.push_back(ChurnOp{Kind::kReadMapped, hart_, 0, cur, 0, at, 0});
        break;
      }
      default:
        break;
    }
  }

  /// A live, non-init process not running on any hart (or kNoSlot).
  u32 pick_idle() {
    for (int tries = 0; tries < 8; ++tries) {
      const u32 s = live_[rng_.next_below(live_.size())];
      if (s != 0 && s != cur_[0] && s != cur_[1]) return s;
    }
    return kNoSlot;
  }

  /// Demand-fault the next page of the process's region, first mapping a
  /// fresh region (and unmapping the full one) when it has no room.
  void emit_fault(u32 slot) {
    ProcModel& p = procs_[slot];
    if (p.region == 0 || p.used == kRegionPages) {
      if (p.region != 0) {
        for (u64 i = 0; i < kRegionPages; ++i) p.present.erase(p.region + i * ptstore::kPageSize);
        s_.ops.push_back(ChurnOp{Kind::kMunmap, hart_, 0, slot, 0, p.region, kRegionBytes});
      }
      p.region = kRegionBase + p.next_region++ * kRegionBytes;
      p.used = 0;
      s_.ops.push_back(ChurnOp{Kind::kMmap, hart_, 0, slot, 0, p.region, kRegionBytes});
    }
    const VirtAddr page = p.region + p.used++ * ptstore::kPageSize;
    p.present.insert(page);
    const VirtAddr at = page + 8 * rng_.next_below(ptstore::kPageSize / 8);
    s_.ops.push_back(ChurnOp{Kind::kFaultWrite, hart_, 0, slot, 0, at, 0});
  }

  void emit_switch(u8 hart, u32 slot) {
    hart_ = hart;
    cur_[hart] = slot;
    s_.ops.push_back(ChurnOp{Kind::kSwitch, hart, 0, slot, 0, 0, 0});
  }

  void emit_fork(u32 parent) {
    const u32 child = static_cast<u32>(procs_.size());
    procs_.push_back(procs_[parent]);
    live_.push_back(child);
    s_.ops.push_back(ChurnOp{Kind::kFork, hart_, 0, parent, child, 0, 0});
  }

  void emit_exit(u32 slot) {
    procs_[slot] = ProcModel{};
    live_.erase(std::find(live_.begin(), live_.end(), slot));
    s_.ops.push_back(ChurnOp{Kind::kExit, hart_, 0, slot, 0, 0, 0});
  }

  ptstore::Rng rng_;
  std::vector<Sys> sys_plan_;  ///< Syscall numbers, in issue order.
  size_t next_sys_ = 0;
  ChurnStream s_;
  std::vector<ProcModel> procs_;
  std::vector<u32> live_;            ///< Live slots, init first.
  /// Running slot per hart. The hart changes only at a switch, so on the
  /// 1-hart passes the running process is always cur_[hart_] too.
  u32 cur_[2] = {0, kNoSlot};
  u8 hart_ = 0;                      ///< Hart of the latest switch.
};

}  // namespace

ChurnStream make_churn_stream(u64 seed, size_t n_ops) {
  return ChurnModel(ptstore::harness::shard_seed(seed, 200)).generate(n_ops);
}

std::string serialize(const ChurnStream& s) {
  std::string out;
  out.reserve(s.ops.size() * 24);
  auto put = [&out](u64 v, size_t n) {
    for (size_t b = 0; b < n; ++b) out.push_back(static_cast<char>(v >> (8 * b)));
  };
  for (const ChurnOp& op : s.ops) {
    put(static_cast<u64>(op.kind), 1);
    put(op.hart, 1);
    put(op.sys, 1);
    put(op.slot, 4);
    put(op.child, 4);
    put(op.va, 8);
    put(op.len, 8);
  }
  put(s.slots, 4);
  return out;
}

}  // namespace perfbench
