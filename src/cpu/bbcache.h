// Decoded basic-block cache for the interpreter core, and the block-granular
// dispatch loop that runs from it (Core::run_block, in bbcache.cpp).
//
// Blocks are straight-line runs of pre-decoded instructions keyed by the
// *physical* address of their first parcel (plus the fetch privilege, since
// the cached PMP fetch decision depends on it). Each entry carries its
// execute handler, resolved once at build time, and flags: whether it
// stops a run (Zicsr, xRET, sfence.vma, fence.i, wfi, ecall, ebreak),
// whether it may write memory (stores, AMOs, and loads, whose page walk may
// set an A/D bit), and whether its parcels stay in the previous entry's L1I
// line.
//
// One run_block() call is one run: it takes a pending interrupt or locates
// the block for the PC, then dispatches entries until an entry stops it,
// the step budget runs out, a memory-writing entry changed the block's
// frame, cycles_ reached mtimecmp_ (the next call takes the timer
// interrupt), or the block ends without a usable successor link.
// Everything that can change between two steps of a run only changes at
// those points, so the per-step checks move to the start of the run:
//
//   * the deferred flush (fence.i, frame-table rebuild), PC alignment and
//     the interrupt test;
//   * PmpUnit::write_gen()     — pmpcfg/pmpaddr writes are Zicsr (stop);
//   * PhysMem frame write gens — re-checked after every memory-writing entry
//                                (self-modifying code, aliased mappings);
//   * PhysMem::frame_table_gen() — checkpoint restore drops everything.
//
// A block is found as per-step dispatch found it: the cursor (bb_cur_, the
// next entry of a block left mid-way) first, then the map. Each block also
// keeps its fall-through and taken successor, stamped with the cache's
// epoch; while no block was removed since, the successor whose physical
// start and privilege match the new PC is the block the map holds for that
// key, so the lookup after a branch is a compare instead of a hash probe.
// A run goes on into the linked successor itself when its physical PC is
// known without a TLB effect (the identity map, or the fetch memo's page)
// and its guards pass; otherwise the next call's lookup links it.
//
// Every fetch still has the classic path's TLB, page-table-walker and
// I-cache effects. The physical PC of each parcel is re-derived through the
// fetch memo (see Core::fetch_translate): a fetch from the page of the last
// ITLB hit replays Tlb::lookup's memo branch; M-mode and Bare fetches are the
// identity map. Inside a run, those ITLB memo replays, the L1I line-memo
// hits and the bbcache.hits counts are tallied per parcel and written into
// the Tlb, Cache and CounterBank in one batch (Core::commit_fetch_batch)
// before anything else can see them: before any real ITLB or L1I access,
// before a stopping entry executes or a trace hook runs, in take_trap, and
// on every exit. A batch of n memo hits leaves each structure exactly as n
// single hits would (same tick, same LRU stamp on the same entry, same
// count).
//
// The cache is a pure host-speed structure: simulated cycles and every
// other counter are unchanged whether it is on or off. Its own bbcache.*
// counters live in the core's bank, and Core::merged_stats() publishes them
// (zeros included) exactly when the cache is on. The classic path
// (CoreConfig::decode_cache = false) is the reference; the lockstep oracle
// (harness/lockstep.h) runs one core of each kind side by side and compares
// architectural state and every counter after every run_block() return.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "isa/inst.h"
#include "telemetry/metrics.h"

namespace ptstore {

class Core;
struct StepResult;

/// Execute handler of one instruction class (Core::handler_for).
using ExecHandler = StepResult (*)(Core&, const isa::Inst&);

/// One pre-decoded instruction within a block.
struct BBEntry {
  static constexpr u8 kStops = 1;      ///< Ends a run after it executes.
  static constexpr u8 kWritesMem = 2;  ///< May write memory (guard re-check).
  /// Every parcel lies in the L1I line of the previous entry's last parcel,
  /// so after that entry ran, its reads are line-memo hits.
  static constexpr u8 kSameLine = 4;

  isa::Inst inst;
  ExecHandler handler = nullptr;
  u16 page_off = 0;  ///< Offset of the first parcel within the 4 KiB page.
  u8 flags = 0;
};

/// A decoded straight-line run. All parcels of every entry lie in one
/// physical page (builds stop before a page-straddling instruction).
struct BBlock {
  PhysAddr start_pa = 0;            ///< PA of the first entry's first parcel.
  PhysAddr page_pa = 0;             ///< Page base of every parcel.
  Privilege priv = Privilege::kMachine;
  u64 pmp_gen = 0;                  ///< PmpUnit::write_gen() at build time.
  const u64* frame_gen = nullptr;   ///< PhysMem write gen of the page's frame.
  u64 frame_gen_at_build = 0;
  std::vector<BBEntry> entries;
  /// Successors: [0] after falling off the end, [1] after a taken transfer.
  /// Valid only while succ_epoch equals the cache's epoch().
  std::array<BBlock*, 2> succ{};
  u64 succ_epoch = 0;
};

class BlockCache {
 public:
  static constexpr size_t kMaxBlocks = 4096;
  static constexpr size_t kMaxEntries = 64;

  static constexpr std::array<const char*, 3> kCounterNames = {
      "bbcache.hits", "bbcache.misses", "bbcache.invalidations"};

  explicit BlockCache(telemetry::CounterBank& bank)
      : hits_(bank.counter(kCounterNames[0], "decoded-block cache hits (host-side)")),
        misses_(bank.counter(kCounterNames[1],
                             "decoded-block cache misses (host-side)")),
        invalidations_(bank.counter(kCounterNames[2],
                                    "decoded blocks invalidated (host-side)")) {}

  /// `n` instructions dispatched from cached blocks.
  void note_hits(u64 n) { hits_.add(n); }
  /// A block build (including one that found nothing to cache).
  void note_miss() { misses_.add(); }

  BBlock* find(PhysAddr pa, Privilege priv) {
    auto it = blocks_.find(key(pa, priv));
    return it == blocks_.end() ? nullptr : it->second.get();
  }

  /// Takes ownership; a full cache is flushed first (cheap, rare, and keeps
  /// every stored pointer stable between steps otherwise). A block already
  /// at the same key is replaced.
  BBlock* insert(std::unique_ptr<BBlock> blk) {
    if (blocks_.size() >= kMaxBlocks) flush_all();
    BBlock* raw = blk.get();
    auto [it, inserted] = blocks_.try_emplace(key(raw->start_pa, raw->priv));
    if (!inserted) ++epoch_;
    it->second = std::move(blk);
    return raw;
  }

  /// Drop one block whose generation guard failed.
  void invalidate(const BBlock* blk) {
    blocks_.erase(key(blk->start_pa, blk->priv));
    ++epoch_;
    invalidations_.add();
  }

  void flush_all() {
    invalidations_.add(blocks_.size());
    blocks_.clear();
    ++epoch_;
  }

  size_t size() const { return blocks_.size(); }

  /// Bumped whenever a block is destroyed. While it is unchanged, every
  /// block pointer taken since is alive and still the map's block for its
  /// key.
  u64 epoch() const { return epoch_; }

  /// from->succ[slot], when it was linked in the current epoch.
  BBlock* successor(const BBlock* from, unsigned slot) const {
    return from->succ_epoch == epoch_ ? from->succ[slot] : nullptr;
  }
  void link(BBlock* from, unsigned slot, BBlock* to) {
    if (from->succ_epoch != epoch_) {
      from->succ = {};
      from->succ_epoch = epoch_;
    }
    from->succ[slot] = to;
  }

 private:
  // PAs are < 2^56, so the privilege tags the top bits.
  static u64 key(PhysAddr pa, Privilege priv) {
    return pa | (static_cast<u64>(priv) << 60);
  }

  std::unordered_map<u64, std::unique_ptr<BBlock>> blocks_;
  u64 epoch_ = 0;
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter invalidations_;
};

}  // namespace ptstore
