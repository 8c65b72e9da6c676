// Binary-buddy page allocator for one physical zone, mirroring the Linux
// design the paper's kernel changes hook into (§IV-C1).
//
// Allocation policy prefers the lowest free address, which keeps the top of
// the NORMAL zone (the pages adjacent to the secure-region boundary) free —
// the property that makes PTStore's boundary adjustment via
// alloc_contig_range() practical.
//
// Allocator metadata (free lists) lives host-side, standing in for the
// kernel's normal-memory bookkeeping, which the threat model lets attackers
// corrupt. The attack harness models that with force_next_alloc(), which
// makes the allocator hand out an arbitrary (possibly in-use) page — the
// §V-E3 scenario PTStore's zero-check defeats.
//
// Each order's free list is a bitmap over the zone's naturally aligned
// blocks of that order, with one summary bit per nonzero bitmap word, so
// membership (buddy coalescing) is one bit test and the lowest free block
// is a short summary scan. The bitmaps are laid out afresh when the zone
// grows below the range they cover (donate_front, restore_state).
#pragma once

#include <array>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace ptstore {

inline constexpr unsigned kMaxOrder = 10;  // Largest block: 2^10 pages = 4 MiB.

class BuddyZone {
 public:
  BuddyZone() = default;
  BuddyZone(std::string name, PhysAddr base, u64 size);

  const std::string& name() const { return name_; }
  PhysAddr base() const { return base_; }
  PhysAddr end() const { return end_; }

  /// Allocate 2^order contiguous pages; returns the physical base address.
  std::optional<PhysAddr> alloc_pages(unsigned order);
  /// Free a block previously returned by alloc_pages with the same order.
  void free_pages(PhysAddr pa, unsigned order);

  /// Carve a specific page range out of the free space (alloc_contig_range).
  /// Succeeds only if every page in [pa, pa + pages*4K) is currently free.
  bool alloc_range(PhysAddr pa, u64 pages);
  /// Release a specific previously-allocated range page-by-page.
  void free_range(PhysAddr pa, u64 pages);

  /// Extend the zone with pages at its lower edge (PTStore zone growth) —
  /// `pa` must abut the current base. The pages join the free space.
  bool donate_front(PhysAddr pa, u64 pages);
  /// Give away `pages` pages from the zone's upper edge... not needed; zones
  /// only grow downward in this design.

  u64 free_pages_count() const { return free_count_; }
  u64 total_pages() const { return (end_ - base_) >> kPageShift; }
  bool contains(PhysAddr pa, u64 len = 1) const {
    return pa >= base_ && pa + len <= end_;
  }
  bool page_is_free(PhysAddr pa) const;

  /// Attack hook: next alloc_pages(0) returns `pa` regardless of state —
  /// models corrupted freelist metadata.
  void force_next_alloc(PhysAddr pa) { forced_ = pa; }

  /// Allocator bookkeeping for full-system checkpoints. Captures the zone
  /// geometry too: the PTStore zone's base moves on donate_front, so a
  /// restored zone must recover the adjusted boundary, not the boot-time one.
  struct State {
    PhysAddr base = 0;
    PhysAddr end = 0;
    u64 free_count = 0;
    /// Free blocks as (pfn, order), ascending — the exact free lists.
    std::vector<std::pair<u64, unsigned>> free;
  };
  State save_state() const;
  void restore_state(const State& st);

  /// Invariant checks for property tests: free blocks are inside the zone,
  /// non-overlapping, and no pair of buddies is free at the same order (they
  /// would have merged).
  bool check_invariants(std::string* why = nullptr) const;

  /// Free blocks as (pa, order) pairs, for tests.
  std::vector<std::pair<PhysAddr, unsigned>> free_blocks() const;

 private:
  // Absolute page-frame numbers (pa >> 12), as in Linux, so the zone base
  // can move (donate_front) without invalidating the free lists.
  static u64 pfn(PhysAddr pa) { return pa >> kPageShift; }
  static PhysAddr pa_of(u64 pfn_v) { return pfn_v << kPageShift; }
  /// Insert a free block and coalesce with its buddy as far as possible.
  void insert_free(u64 pfn_v, unsigned order);
  /// Seed [lo, hi) page range into the free lists with maximal blocks.
  void seed_range(u64 lo_pfn, u64 hi_pfn);

  /// The free blocks of one order: bit i of `words` is the block at pfn
  /// origin_ + (i << order), and bit j of `summary` is set iff words[j]
  /// is nonzero.
  struct FreeList {
    std::vector<u64> words;
    std::vector<u64> summary;
    u64 count = 0;
  };
  bool is_free(unsigned order, u64 pfn_v) const;
  void add(unsigned order, u64 pfn_v);
  void remove(unsigned order, u64 pfn_v);
  /// Lowest free block of `order`, if any.
  std::optional<u64> lowest(unsigned order) const;
  /// Lowest free block of `order` starting in pfns [lo, hi), if any.
  std::optional<u64> next_free(unsigned order, u64 lo_pfn, u64 hi_pfn) const;
  /// Re-lay the bitmaps so they cover pfns [lo, hi), keeping every block.
  void cover(u64 lo_pfn, u64 hi_pfn);

  std::string name_;
  PhysAddr base_ = 0;
  PhysAddr end_ = 0;
  u64 free_count_ = 0;
  u64 origin_ = 0;  ///< First pfn the bitmaps cover (2^kMaxOrder aligned).
  u64 limit_ = 0;   ///< End of the covered pfns (2^kMaxOrder aligned).
  std::array<FreeList, kMaxOrder + 1> free_;
  std::optional<PhysAddr> forced_;
};

}  // namespace ptstore
