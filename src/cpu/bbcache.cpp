// Decoded basic-block cache: build + per-step dispatch (see bbcache.h for
// the coherence story). The invariant throughout: every simulated effect —
// cycles, TLB/PTW/cache counters, trap behaviour — happens in exactly the
// order and quantity the classic fetch/decode path (step_fetch_decode)
// would produce. Only host work with no simulated trace (the PMP way scan
// when it allows, the physical parcel reads, decode_any, and the MMU call of
// a fetch the fetch memo replays) is skipped, and each skip is justified by
// a generation guard checked *before* the skip.
#include "common/bits.h"
#include "cpu/core.h"
#include "telemetry/trace.h"

namespace ptstore {

using isa::Inst;
using isa::Op;

namespace {

/// Ops that end a straight-line run. Purely a block-shaping heuristic:
/// dispatch revalidates everything each step, so correctness never depends
/// on where a block ends.
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

}  // namespace

bool Core::bb_fetch_pmp_allowed(PhysAddr pa) const {
  const PmpDecision pd =
      pmp_.check(pa, 2, AccessType::kExecute, AccessKind::kRegular, priv_);
  // access_with's baseline-core fixup: the S-bit has no meaning there. A
  // fetch is already a regular access, so its re-check would repeat this one.
  if (!cfg_.ptstore_enabled && pd.reason == PmpDenyReason::kSecureRegular) return true;
  return pd.allowed;
}

// Inline: step_cached() below is the only caller, and the memo hit is its
// common case.
inline TranslateResult Core::fetch_translate(VirtAddr va) {
  TranslateResult res;
  const u64 satp = mmu_.satp();
  if (priv_ == Privilege::kMachine || isa::satp::mode(satp) == isa::satp::kModeBare) {
    // Identity map; Mmu::translate touches no TLB or counter here.
    res.ok = true;
    res.pa = va;
    return res;
  }
  if ((va >> kPageShift) == fetch_vpage_ && priv_ == fetch_priv_ && satp == fetch_satp_ &&
      mmu_.itlb().memo_gen() == fetch_itlb_gen_) {
    mmu_.itlb().replay_memo_hit();
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

  PhysAddr pa = pa0;
  while (blk->entries.size() < BlockCache::kMaxEntries) {
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
    blk->entries.push_back(BBEntry{in, static_cast<u16>(off)});
    if (ends_block(in)) break;
    pa += in.len;
  }

  if (blk->entries.empty()) return nullptr;
  if (telemetry::EventRing* tr = telemetry::tracing()) {
    tr->instant(telemetry::Subsystem::kBBCache, "bb_fill", cycles_, instret_,
                static_cast<u8>(priv_), pa0);
  }
  return bbcache_.insert(std::move(blk));
}

StepResult Core::step_cached() {
  // Deferred whole-cache flushes: fence.i, and checkpoint restores that
  // rebuilt the frame table (dangling frame_gen pointers).
  if (bb_flush_pending_ || bb_table_gen_ != mem_.frame_table_gen()) {
    bbcache_.flush_all();
    bb_flush_pending_ = false;
    bb_table_gen_ = mem_.frame_table_gen();
    bb_cur_ = nullptr;
  }

  if (!is_aligned(pc_, 2)) return step_fetch_decode(nullptr);

  // The per-step translation. This is what keeps satp writes, sfence.vma,
  // ASID switches, and remaps hook-free: the physical PC is re-derived every
  // step with full TLB/PTW stat effects (replayed, on a fetch-memo hit).
  TranslateResult t0 = fetch_translate(pc_);
  cycles_ += t0.cycles;
  if (!t0.ok) {
    bb_cur_ = nullptr;
    return raise(t0.fault, pc_);
  }

  // Locate the block: the cursor from the previous step if it still points
  // at this exact physical PC and privilege, else a map lookup.
  BBlock* blk = nullptr;
  size_t idx = 0;
  bool from_cache = true;
  if (bb_cur_ != nullptr && bb_cur_->priv == priv_ &&
      bb_idx_ < bb_cur_->entries.size() &&
      bb_cur_->page_pa + bb_cur_->entries[bb_idx_].page_off == t0.pa) {
    blk = bb_cur_;
    idx = bb_idx_;
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
  if (blk == nullptr) {
    bbcache_.note_miss();
    blk = bb_build(t0.pa);
    if (blk == nullptr) return step_fetch_decode(&t0);
    idx = 0;
    from_cache = false;
  }
  if (from_cache) bbcache_.note_hit();

  // By value: a hook inside execute() may restore a checkpoint and flush the
  // cache, which would dangle a reference into blk->entries.
  const Inst in = blk->entries[idx].inst;

  // Timing of the fetch the classic path would perform. Blocks only cover
  // DRAM (frame_gen != nullptr implies is_dram), so the MMIO branch of
  // access_with is unreachable here.
  Cache* l2 = l2_ ? &*l2_ : nullptr;
  cycles_ += Cache::hierarchy_access(icache_, l2, t0.pa, /*is_write=*/false);
  if (in.len == 4) {
    // The high parcel lies in the same page (builds reject straddlers), so
    // this translation sees the same leaf: it cannot fault, and its TLB/
    // I-cache effects replay the classic path's second-parcel fetch. After
    // t0 the ITLB memo covers the page, so this is a fetch-memo hit unless
    // t0 walked.
    const TranslateResult t1 = fetch_translate(pc_ + 2);
    cycles_ += t1.cycles;
    if (!t1.ok) return raise(t1.fault, pc_ + 2);
    assert(t1.pa == t0.pa + 2);
    cycles_ += Cache::hierarchy_access(icache_, l2, t1.pa, /*is_write=*/false);
  }

  if (trace_hook_) trace_hook_(*this, pc_, in);
  // Illegal and disabled-pt encodings never enter a block, so the classic
  // path's post-decode checks are compile-time-true here.

  const u64 prev_pc = pc_;
  const u64 drops_before = bbcache_.drops();
  const StepResult r = execute(in);
  if (r.stop != StopReason::kTrapped) ++instret_;

  // Arm the cursor when execution fell through to the next entry. The
  // drop-count check proves no block was destroyed during
  // execute() (e.g. a checkpoint restore inside a trap hook), so blk is
  // still safe to dereference.
  if (r.stop == StopReason::kNone && bbcache_.drops() == drops_before &&
      idx + 1 < blk->entries.size() && pc_ == prev_pc + in.len &&
      priv_ == blk->priv) {
    bb_cur_ = blk;
    bb_idx_ = idx + 1;
  }
  return r;
}

}  // namespace ptstore
