// Decoded basic-block cache for the interpreter core.
//
// Blocks are straight-line runs of pre-decoded instructions keyed by the
// *physical* address of their first parcel (plus the fetch privilege, since
// the cached PMP fetch decision depends on it). Dispatch is per step, and
// every step re-derives the physical PC of the fetch, with the TLB,
// page-table-walker and I-cache effects the classic fetch/decode path has.
// It does so through Core::fetch_translate(), which keeps a per-page fetch
// memo keyed on (virtual page, privilege, satp, ITLB memo_gen()): a fetch
// from the same page as the last ITLB hit replays Tlb::lookup's memo branch
// (tick, LRU stamp, hit count) inline instead of calling the MMU; M-mode and
// Bare fetches are the identity map. The second parcel of a 32-bit encoding
// takes the same memo, and both parcels take Cache's inline memo branch.
//
// What a cached block skips are the PMP scan, the physical parcel reads and
// decode_any(), guarded by generation counters checked before the skip:
//
//   * PmpUnit::write_gen()       — any pmpcfg/pmpaddr write drops the block.
//   * PhysMem frame write gens   — any store into the block's page drops it
//                                  (self-modifying code, aliased mappings).
//   * PhysMem::frame_table_gen() — checkpoint restore drops everything.
//
// satp writes, sfence.vma, and privilege changes need no hooks: the fetch
// memo keys on satp and privilege, sfence.vma and TLB fills change the ITLB
// memo_gen(), and a remap then simply stops matching the cached block.
// fence.i conservatively flushes the whole cache (it is the architectural
// "I just wrote code" signal), although the frame generations already make
// that a no-op for correctness.
//
// The cache is a pure host-speed structure: simulated cycles and every
// other counter are unchanged whether it is on or off. Its own bbcache.*
// counters live in the core's bank, and Core::merged_stats() publishes them
// (zeros included) exactly when the cache is on. The classic path
// (CoreConfig::decode_cache = false) is the reference; tests/cpu/
// lockstep_test.cpp steps one core of each kind side by side and compares
// architectural state and every counter after each step.
#pragma once

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "isa/inst.h"
#include "telemetry/metrics.h"

namespace ptstore {

/// One pre-decoded instruction within a block.
struct BBEntry {
  isa::Inst inst;
  u16 page_off = 0;  ///< Offset of the first parcel within the 4 KiB page.
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

  /// An instruction dispatched from a cached block.
  void note_hit() { hits_.add(); }
  /// A block build (including one that found nothing to cache).
  void note_miss() { misses_.add(); }

  BBlock* find(PhysAddr pa, Privilege priv) {
    auto it = blocks_.find(key(pa, priv));
    return it == blocks_.end() ? nullptr : it->second.get();
  }

  /// Takes ownership; a full cache is flushed first (cheap, rare, and keeps
  /// every stored pointer stable between steps otherwise).
  BBlock* insert(std::unique_ptr<BBlock> blk) {
    if (blocks_.size() >= kMaxBlocks) flush_all();
    BBlock* raw = blk.get();
    blocks_[key(blk->start_pa, blk->priv)] = std::move(blk);
    return raw;
  }

  /// Drop one block whose generation guard failed.
  void invalidate(const BBlock* blk) {
    blocks_.erase(key(blk->start_pa, blk->priv));
    ++drops_;
    invalidations_.add();
  }

  void flush_all() {
    drops_ += blocks_.size();
    invalidations_.add(blocks_.size());
    blocks_.clear();
  }

  size_t size() const { return blocks_.size(); }

  /// Blocks dropped since construction. Unlike bbcache.invalidations it is
  /// never cleared, so a step can prove its block survived execute().
  u64 drops() const { return drops_; }

 private:
  // PAs are < 2^56, so the privilege tags the top bits.
  static u64 key(PhysAddr pa, Privilege priv) {
    return pa | (static_cast<u64>(priv) << 60);
  }

  std::unordered_map<u64, std::unique_ptr<BBlock>> blocks_;
  u64 drops_ = 0;
  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter invalidations_;
};

}  // namespace ptstore
