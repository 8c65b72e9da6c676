// Set-associative cache timing model (tag array only — data lives in
// PhysMem). Mirrors the paper's prototype config: 16 KiB 4-way L1I/L1D with
// 64 B lines. Used purely for cycle accounting; correctness never depends
// on it.
//
// Host-speed notes. Counters are handles into the owning core's
// telemetry::CounterBank, bumped with a single indirected increment. A
// one-entry "last block" memo answers a repeat access to the previous line
// without the way scan: that line is valid and MRU, so the scan would hit
// it. The memo branch (tick, LRU stamp, dirty bit, hit count) and the L1-hit
// case of hierarchy_access() are inline here, because the interpreter pays
// them on every fetch parcel and data access; the way scan, miss handling
// and L2 fallback stay out of line in cache.cpp.
#pragma once

#include <cassert>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/types.h"
#include "telemetry/metrics.h"

namespace ptstore {

struct CacheConfig {
  std::string name = "L1";
  u64 size_bytes = KiB(16);
  unsigned ways = 4;
  unsigned line_bytes = 64;
  Cycles hit_latency = 1;
  Cycles miss_penalty = 30;        ///< DRAM access on miss.
  Cycles dirty_evict_penalty = 8;  ///< Extra writeback cost.
};

/// Result of one cache access, in cycles.
struct CacheAccessResult {
  bool hit = false;
  Cycles cycles = 0;
};

class Cache {
 public:
  /// Registers <name>.{hits,misses,writebacks,flushes} in `bank`.
  Cache(const CacheConfig& cfg, telemetry::CounterBank& bank);

  /// Two-level helper: access `l1`, and on a miss charge the `l2` lookup
  /// instead of l1's DRAM penalty (l2 == nullptr degrades to l1-only).
  /// Returns the cycles *beyond* l1's hit latency — the "excess" the core
  /// charges on top of its base CPI.
  static Cycles hierarchy_access(Cache& l1, Cache* l2, PhysAddr pa, bool is_write) {
    const CacheAccessResult r1 = l1.access(pa, is_write);
    if (r1.hit || l2 == nullptr) return r1.cycles - l1.cfg_.hit_latency;
    return l2_fallback(l1, *l2, pa, is_write, r1.cycles);
  }

  /// Simulate an access to physical address `pa`. Write accesses mark the
  /// line dirty (write-allocate, write-back policy).
  CacheAccessResult access(PhysAddr pa, bool is_write) {
    const u64 block = pa >> line_shift_;
    // Same block as the previous access: that line is valid and MRU, and no
    // other access has run since, so the way scan would find exactly it.
    if (block == last_block_ && last_line_ != nullptr) {
      ++tick_;
      last_line_->lru_tick = tick_;
      last_line_->dirty = last_line_->dirty || is_write;
      hits_.add();
      return {true, cfg_.hit_latency};
    }
    return access_scan(block, is_write);
  }

  /// Drop every line (e.g., fence.i on the I-cache).
  void invalidate_all();

  const CacheConfig& config() const { return cfg_; }

  unsigned num_sets() const { return num_sets_; }

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    u64 tag = 0;
    u64 lru_tick = 0;
  };

  /// access() past the memo: way scan, then LRU fill on a miss.
  CacheAccessResult access_scan(u64 block, bool is_write);
  /// hierarchy_access() after an L1 miss with an L2 present.
  static Cycles l2_fallback(Cache& l1, Cache& l2, PhysAddr pa, bool is_write,
                            Cycles l1_cycles);

  CacheConfig cfg_;
  unsigned num_sets_;
  unsigned line_shift_;
  std::vector<Line> lines_;  // num_sets_ * ways, row-major by set.
  u64 tick_ = 0;

  // Last-access memo: the line the previous access touched is valid and
  // MRU, so a repeat access to the same block is a guaranteed hit.
  u64 last_block_ = ~u64{0};
  Line* last_line_ = nullptr;

  telemetry::Counter hits_;
  telemetry::Counter misses_;
  telemetry::Counter writebacks_;
  telemetry::Counter flushes_;
};

}  // namespace ptstore
