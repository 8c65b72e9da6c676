// Decoded basic-block cache: build and the block-granular dispatch loop (see
// bbcache.h for the coherence story). The invariant throughout: every
// simulated effect — cycles, TLB/PTW/cache counters, trap behaviour, the
// step at which an interrupt is taken — happens in exactly the order and
// quantity a sequence of classic steps (step_fetch_decode) would produce.
// Only host work with no simulated trace is skipped (the PMP way scan when it
// allows, the physical parcel reads, decode_any, the MMU call of a fetch the
// fetch memo replays, and per-step checks that cannot change inside a run),
// and each skip is justified by a guard checked *before* the skip.
#include <array>

#include "common/bits.h"
#include "cpu/core.h"
#include "telemetry/trace.h"

namespace ptstore {

using isa::Inst;
using isa::Op;
using isa::TrapCause;

namespace {

/// Ops that end a straight-line run. They decide where blocks end, and so
/// the bbcache.* counts; correctness never depends on it, because every run
/// also stops after the last entry of its block.
bool ends_block(const Inst& in) {
  switch (in.op) {
    case Op::kJal: case Op::kJalr:
    case Op::kBeq: case Op::kBne: case Op::kBlt:
    case Op::kBge: case Op::kBltu: case Op::kBgeu:
    case Op::kEcall: case Op::kEbreak:
    case Op::kMret: case Op::kSret: case Op::kWfi:
    case Op::kSfenceVma: case Op::kFenceI:
      return true;
    default:
      return false;
  }
}

/// BBEntry::flags of `in`. Stopping entries are the ones that can change
/// what the per-step checks read: CSRs (interrupt enables and pending bits,
/// mtimecmp, satp, PMP), the privilege, the TLBs and the block cache.
u8 entry_flags(const Inst& in) {
  switch (in.op) {
    case Op::kCsrrw: case Op::kCsrrs: case Op::kCsrrc:
    case Op::kCsrrwi: case Op::kCsrrsi: case Op::kCsrrci:
    case Op::kEcall: case Op::kEbreak:
    case Op::kMret: case Op::kSret: case Op::kWfi:
    case Op::kSfenceVma: case Op::kFenceI:
      return BBEntry::kStops;
    default:
      return in.is_load() || in.is_store() || in.is_amo() ? BBEntry::kWritesMem : 0;
  }
}

}  // namespace

bool Core::bb_fetch_pmp_allowed(PhysAddr pa) const {
  const PmpDecision pd =
      pmp_.check(pa, 2, AccessType::kExecute, AccessKind::kRegular, priv_);
  // access_with's baseline-core fixup: the S-bit has no meaning there. A
  // fetch is already a regular access, so its re-check would repeat this one.
  if (!cfg_.ptstore_enabled && pd.reason == PmpDenyReason::kSecureRegular) return true;
  return pd.allowed;
}

bool Core::fetch_identity() const {
  return priv_ == Privilege::kMachine ||
         isa::satp::mode(mmu_.satp()) == isa::satp::kModeBare;
}

bool Core::fetch_memo_covers(VirtAddr va) const {
  return (va >> kPageShift) == fetch_vpage_ && priv_ == fetch_priv_ &&
         mmu_.satp() == fetch_satp_ && mmu_.itlb().memo_gen() == fetch_itlb_gen_;
}

TranslateResult Core::fetch_translate(VirtAddr va) {
  TranslateResult res;
  if (fetch_identity()) {
    // Identity map; Mmu::translate touches no TLB or counter here.
    res.ok = true;
    res.pa = va;
    return res;
  }
  if (fetch_memo_covers(va)) {
    mmu_.itlb().replay_memo_hits(1);
    res.ok = true;
    res.tlb_hit = true;
    res.pa = fetch_pa_page_ | (va & kPageMask);
    return res;
  }
  return fetch_translate_mmu(va);
}

TranslateResult Core::fetch_translate_mmu(VirtAddr va) {
  const TranslateResult res = mmu_.translate(va, AccessType::kExecute,
                                             AccessKind::kRegular, ctx_for(priv_));
  // An ITLB hit leaves the ITLB memo covering this page (a fetch never takes
  // the D-bit re-walk), so the next fetch in the page can replay it.
  if (res.ok && res.tlb_hit) {
    fetch_vpage_ = va >> kPageShift;
    fetch_priv_ = priv_;
    fetch_satp_ = mmu_.satp();
    fetch_itlb_gen_ = mmu_.itlb().memo_gen();
    fetch_pa_page_ = res.pa & ~kPageMask;
  }
  return res;
}

BBlock* Core::bb_build(PhysAddr pa0) {
  const u64* fgen = mem_.frame_write_gen(pa0);
  // Unwritten frames hold only zero bytes (an illegal encoding), and MMIO is
  // never cached — both fall back to the classic path.
  if (fgen == nullptr) return nullptr;

  auto blk = std::make_unique<BBlock>();
  blk->start_pa = pa0;
  blk->page_pa = align_down(pa0, kPageSize);
  blk->priv = priv_;
  blk->pmp_gen = pmp_.write_gen();
  blk->frame_gen = fgen;
  blk->frame_gen_at_build = *fgen;

  // Decoded on the stack first, so each block holds exactly its entries.
  std::array<BBEntry, BlockCache::kMaxEntries> buf;
  size_t n = 0;
  PhysAddr pa = pa0;
  const unsigned line_shift = log2_exact(icache_.config().line_bytes);
  u64 prev_line = ~u64{0};  // L1I line of the previous entry's last parcel.
  while (n < buf.size()) {
    const u64 off = pa - blk->page_pa;
    if (off + 2 > kPageSize) break;
    if (!bb_fetch_pmp_allowed(pa)) break;
    u32 word = mem_.read_u16(pa);
    if ((word & 0b11) == 0b11) {
      // A 32-bit encoding must not straddle the page: its second parcel
      // would live in a different frame than the one we guard.
      if (off + 4 > kPageSize) break;
      if (!bb_fetch_pmp_allowed(pa + 2)) break;
      word |= static_cast<u32>(mem_.read_u16(pa + 2)) << 16;
    }
    const Inst in = isa::decode_any(word);
    if (in.op == Op::kIllegal) break;
    if (in.is_pt_access() && !cfg_.ptstore_enabled) break;
    const u64 line = pa >> line_shift;
    const u64 last_line = (pa + in.len - 2) >> line_shift;
    const u8 same_line =
        line == prev_line && last_line == line ? BBEntry::kSameLine : 0;
    prev_line = last_line;
    buf[n++] = BBEntry{in, handler_for(in.op), static_cast<u16>(off),
                       static_cast<u8>(entry_flags(in) | same_line)};
    if (ends_block(in)) break;
    pa += in.len;
  }

  if (n == 0) return nullptr;
  blk->entries.assign(buf.begin(), buf.begin() + n);
  if (telemetry::EventRing* tr = telemetry::tracing()) {
    tr->instant(telemetry::Subsystem::kBBCache, "bb_fill", cycles_, instret_,
                static_cast<u8>(priv_), pa0);
  }
  return bbcache_.insert(std::move(blk));
}

StepResult Core::run_block(u64& budget) {
  assert(budget != 0);
  return trace_hook_ ? run_block_impl<true>(budget) : run_block_impl<false>(budget);
}

template <bool kTraced>
StepResult Core::run_block_impl(u64& budget) {
  // ---- The first step: what every step does before its fetch. ----
  --budget;
  if (maybe_take_interrupt()) return {StopReason::kTrapped, TrapCause::kNone};
  cycles_ += cfg_.timing.base_cpi;
  if (!cfg_.decode_cache) return step_fetch_decode(nullptr);

  // Deferred whole-cache flushes: fence.i, and checkpoint restores that
  // rebuilt the frame table (dangling frame_gen pointers).
  if (bb_flush_pending_ || bb_table_gen_ != mem_.frame_table_gen()) {
    bbcache_.flush_all();
    bb_flush_pending_ = false;
    bb_table_gen_ = mem_.frame_table_gen();
    bb_cur_ = nullptr;
  }

  if (!is_aligned(pc_, 2)) return step_fetch_decode(nullptr);

  // The entry translation. This is what keeps satp writes, sfence.vma, ASID
  // switches, and remaps hook-free: the physical PC is re-derived at every
  // block entry (and every fetch inside the run) with full TLB/PTW stat
  // effects (replayed, on a fetch-memo hit).
  const TranslateResult t0 = fetch_translate(pc_);
  cycles_ += t0.cycles;
  if (!t0.ok) {
    bb_cur_ = nullptr;
    return raise(t0.fault, pc_);
  }

  // Locate the block: the cursor if it points at this exact physical PC and
  // privilege, else the previous block's successor if it does, else the map.
  const u64 epoch0 = bbcache_.epoch();
  BBlock* prev = bb_prev_epoch_ == epoch0 ? bb_prev_ : nullptr;
  const unsigned slot = bb_prev_slot_;
  bb_prev_ = nullptr;
  BBlock* blk = nullptr;
  size_t idx = 0;
  BBlock* succ = prev != nullptr ? bbcache_.successor(prev, slot) : nullptr;
  if (bb_cur_ != nullptr && bb_cur_->priv == priv_ &&
      bb_idx_ < bb_cur_->entries.size() &&
      bb_cur_->page_pa + bb_cur_->entries[bb_idx_].page_off == t0.pa) {
    blk = bb_cur_;
    idx = bb_idx_;
    prev = nullptr;
  } else if (succ != nullptr && succ->start_pa == t0.pa && succ->priv == priv_) {
    blk = succ;  // The map holds exactly this block for the key.
    prev = nullptr;
  } else {
    blk = bbcache_.find(t0.pa, priv_);
  }
  bb_cur_ = nullptr;

  // Generation guards — checked before any baseline effect is skipped.
  if (blk != nullptr && (blk->pmp_gen != pmp_.write_gen() ||
                         *blk->frame_gen != blk->frame_gen_at_build)) {
    if (telemetry::EventRing* tr = telemetry::tracing()) {
      tr->instant(telemetry::Subsystem::kBBCache, "bb_evict", cycles_, instret_,
                  static_cast<u8>(priv_), blk->start_pa);
    }
    bbcache_.invalidate(blk);
    blk = nullptr;
    idx = 0;
  }
  u64 hit = 1;
  if (blk == nullptr) {
    bbcache_.note_miss();
    blk = bb_build(t0.pa);
    if (blk == nullptr) return step_fetch_decode(&t0);
    hit = 0;
  }
  if (prev != nullptr && bbcache_.epoch() == epoch0) bbcache_.link(prev, slot, blk);

  // ---- The run: one entry per step, from idx on, through the block and
  // the linked successors it chains to. ----
  // Inside it nothing the skipped per-step checks read can change: the
  // interrupt state, satp, privilege and PMP only through stopping entries
  // (and traps, which end the run), the frame only through memory-writing
  // entries (re-checked below), and MTIP only when cycles_ reaches
  // mtimecmp_ while the entry test left it clear.
  constexpr u64 kMtip = u64{1} << isa::csr::irq::kMti;
  const Cycles deadline = (mip_ & kMtip) != 0 ? ~Cycles{0} : mtimecmp_;
  Cache* const l2 = l2_ ? &*l2_ : nullptr;
  const u64 epoch = bbcache_.epoch();
  size_t size = blk->entries.size();
  u64 left = budget;
  PhysAddr pa = t0.pa;

  // How the run's parcels translate. The fetch memo's key (page, privilege,
  // satp) is fixed inside a run (it chains to another page only under the
  // identity map), and the ITLB memo changes only through
  // fetch_translate_mmu() (data accesses use the DTLB; sfence.vma and traps
  // commit first and end the run), so once the memo covers the page every
  // later parcel replays it.
  const bool identity = fetch_identity();
  bool replay = !identity && fetch_memo_covers(pc_);
  isa::TrapCause fault = TrapCause::kNone;
  // The translation of in-run parcel `va` (physical `p`); false when it
  // faulted.
  const auto translate = [&](VirtAddr va, [[maybe_unused]] PhysAddr p) {
    if (identity) return true;
    if (replay) {
      assert(fetch_memo_covers(va));
      ++fetch_batch_.itlb;
      return true;
    }
    commit_fetch_batch();
    const TranslateResult t = fetch_translate_mmu(va);
    cycles_ += t.cycles;
    if (!t.ok) {
      fault = t.fault;
      return false;
    }
    // Same page, so the same leaf as the entry translation.
    assert(t.pa == p);
    replay = fetch_memo_covers(va);
    return true;
  };
  // The L1I read of parcel `p`: a line-memo hit is counted into the batch.
  const auto read_line = [&](PhysAddr p) {
    if (icache_.memo_hit(p)) {
      ++fetch_batch_.l1i;
    } else {
      commit_fetch_batch();
      cycles_ += Cache::hierarchy_access(icache_, l2, p, /*is_write=*/false);
    }
  };

  bool first = true;  // The next entry is the first of its block this run.
  for (;;) {
    const BBEntry& e = blk->entries[idx];
    fetch_batch_.bb_hits += hit;
    hit = 1;
    // Blocks only cover DRAM (frame_gen != nullptr implies is_dram), so the
    // MMIO branch of access_with is unreachable here. Past the run's first
    // entry, only the previous entry touched the L1I since.
    const bool same_line = !first && (e.flags & BBEntry::kSameLine) != 0;
    first = false;
    if (same_line) {
      fetch_batch_.l1i += e.inst.len / 2;
    } else {
      read_line(pa);
    }
    if (e.inst.len == 4) {
      // The high parcel lies in the same page (builds reject straddlers), so
      // it sees the same leaf and cannot fault; after the first parcel the
      // ITLB memo covers the page unless that parcel walked.
      if (!translate(pc_ + 2, pa + 2)) {
        budget = left;
        return raise(fault, pc_ + 2);
      }
      if (!same_line) read_line(pa + 2);
    }

    // The handler may trap, and a trap hook may restore a checkpoint and
    // flush the cache; every handler returns straight after raise(), so the
    // entry is not read after that, and nothing of it is read here after the
    // call.
    const u8 flags = e.flags;
    const u8 len = e.inst.len;
    if (flags & BBEntry::kStops) commit_fetch_batch();
    if constexpr (kTraced) {
      commit_fetch_batch();
      trace_hook_(*this, pc_, e.inst);
    }
    // Illegal and disabled-pt encodings never enter a block, so the classic
    // path's post-decode checks are compile-time-true here.
    const u64 prev_pc = pc_;
    const StepResult r = e.handler(*this, e.inst);
    if (r.stop != StopReason::kTrapped) ++instret_;
    ++idx;
    if (r.stop != StopReason::kNone) {
      commit_fetch_batch();
      budget = left;
      return r;
    }
    const bool stop = (flags & BBEntry::kStops) != 0 || left == 0 ||
                      cycles_ >= deadline ||
                      ((flags & BBEntry::kWritesMem) != 0 &&
                       *blk->frame_gen != blk->frame_gen_at_build);
    if (!stop && idx == size) {
      // Run to its end: follow the linked successor when the next step's
      // lookup would find it and its translation is known without effects
      // (the identity map, or the fetch memo's page). Of its entry checks
      // only the frame guard can fail: a link is made only to a block that
      // just passed its guards, PMP writes end runs, and so a run reaches
      // only blocks checked at the current PMP generation.
      const unsigned next_slot = pc_ == prev_pc + len ? 0 : 1;
      BBlock* next = bbcache_.successor(blk, next_slot);
      const PhysAddr next_pa =
          identity ? pc_ : fetch_pa_page_ | (pc_ & kPageMask);
      if (next != nullptr && is_aligned(pc_, 2) &&
          (identity || (replay && fetch_memo_covers(pc_))) &&
          next->start_pa == next_pa && next->priv == priv_ &&
          *next->frame_gen == next->frame_gen_at_build) {
        assert(next->pmp_gen == pmp_.write_gen());
        --left;
        cycles_ += cfg_.timing.base_cpi;
        if (!identity) ++fetch_batch_.itlb;
        blk = next;
        size = next->entries.size();
        idx = 0;
        pa = next_pa;
        first = true;
        continue;
      }
    }
    if (stop || idx == size) {
      commit_fetch_batch();
      budget = left;
      // The epoch check proves no block was destroyed meanwhile, so blk is
      // still safe to keep. Left mid-way on the fall-through path, the run
      // arms the cursor (the next entry re-checks the guards); run to its
      // end, it becomes the next lookup's predecessor.
      if (bbcache_.epoch() == epoch) {
        const bool fell_through = pc_ == prev_pc + len;
        if (idx < size && fell_through && priv_ == blk->priv) {
          bb_cur_ = blk;
          bb_idx_ = idx;
        } else if (idx == size || !fell_through) {
          bb_prev_ = blk;
          bb_prev_slot_ = fell_through ? 0 : 1;
          bb_prev_epoch_ = epoch;
        }
      }
      return r;
    }

    // The next step, from its base CPI and fetch translation on.
    --left;
    cycles_ += cfg_.timing.base_cpi;
    pa = blk->page_pa + blk->entries[idx].page_off;
    if (!translate(pc_, pa)) {
      budget = left;
      return raise(fault, pc_);
    }
  }
}

}  // namespace ptstore
