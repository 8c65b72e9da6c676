#include "kernel/buddy.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bits.h"

namespace ptstore {

namespace {
constexpr u64 kMaxBlock = u64{1} << kMaxOrder;  // Pages in a max-order block.
}  // namespace

BuddyZone::BuddyZone(std::string name, PhysAddr base, u64 size)
    : name_(std::move(name)), base_(base), end_(base + size) {
  assert(is_aligned(base, kPageSize) && is_aligned(size, kPageSize));
  cover(pfn(base_), pfn(end_));
  seed_range(pfn(base_), pfn(end_));
}

// ---- per-order bitmaps ----

bool BuddyZone::is_free(unsigned order, u64 p) const {
  if (p < origin_ || p >= limit_) return false;
  const u64 i = (p - origin_) >> order;
  return (free_[order].words[i / 64] >> (i % 64)) & 1;
}

void BuddyZone::add(unsigned order, u64 p) {
  cover(p, p + (u64{1} << order));
  FreeList& fl = free_[order];
  const u64 i = (p - origin_) >> order;
  u64& w = fl.words[i / 64];
  if ((w >> (i % 64)) & 1) return;
  if (w == 0) fl.summary[i / 4096] |= u64{1} << (i / 64 % 64);
  w |= u64{1} << (i % 64);
  ++fl.count;
}

void BuddyZone::remove(unsigned order, u64 p) {
  if (!is_free(order, p)) return;
  FreeList& fl = free_[order];
  const u64 i = (p - origin_) >> order;
  u64& w = fl.words[i / 64];
  w &= ~(u64{1} << (i % 64));
  if (w == 0) fl.summary[i / 4096] &= ~(u64{1} << (i / 64 % 64));
  --fl.count;
}

std::optional<u64> BuddyZone::lowest(unsigned order) const {
  const FreeList& fl = free_[order];
  if (fl.count == 0) return std::nullopt;
  u64 s = 0;
  while (fl.summary[s] == 0) ++s;
  const u64 w = 64 * s + std::countr_zero(fl.summary[s]);
  const u64 i = 64 * w + std::countr_zero(fl.words[w]);
  return origin_ + (i << order);
}

std::optional<u64> BuddyZone::next_free(unsigned order, u64 lo, u64 hi) const {
  lo = std::max(lo, origin_);
  hi = std::min(hi, limit_);
  if (lo >= hi) return std::nullopt;
  const FreeList& fl = free_[order];
  const u64 step = u64{1} << order;
  const u64 first = (lo - origin_ + step - 1) >> order;  // Blocks at >= lo.
  const u64 last = (hi - origin_ + step - 1) >> order;   // Blocks at < hi.
  for (u64 w = first / 64; w < (last + 63) / 64; ++w) {
    u64 bits = fl.words[w];
    if (w == first / 64) bits &= ~mask_lo(first % 64);
    if (w == last / 64) bits &= mask_lo(last % 64);
    if (bits != 0) return origin_ + ((64 * w + std::countr_zero(bits)) << order);
  }
  return std::nullopt;
}

void BuddyZone::cover(u64 lo, u64 hi) {
  if (lo >= origin_ && hi <= limit_) return;
  const std::vector<std::pair<PhysAddr, unsigned>> blocks = free_blocks();
  if (limit_ > origin_) {
    lo = std::min(lo, origin_);
    hi = std::max(hi, limit_);
  }
  origin_ = align_down(lo, kMaxBlock);
  limit_ = align_up(hi, kMaxBlock);
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    const u64 nwords = ((limit_ - origin_) >> o) / 64 + 1;
    free_[o] = FreeList{std::vector<u64>(nwords), std::vector<u64>(nwords / 64 + 1), 0};
  }
  for (const auto& [pa, o] : blocks) add(o, pfn(pa));
}

// ---- buddy algorithm ----

void BuddyZone::seed_range(u64 lo, u64 hi) {
  // Greedy cover with the largest naturally-aligned blocks that fit.
  while (lo < hi) {
    unsigned order = kMaxOrder;
    while (order > 0 &&
           ((lo & ((u64{1} << order) - 1)) != 0 || lo + (u64{1} << order) > hi)) {
      --order;
    }
    insert_free(lo, order);
    lo += u64{1} << order;
  }
}

void BuddyZone::insert_free(u64 p, unsigned order) {
  free_count_ += u64{1} << order;
  // Coalesce upward while the buddy is also free.
  while (order < kMaxOrder) {
    const u64 buddy = p ^ (u64{1} << order);
    if (!is_free(order, buddy)) break;
    // Buddy must be wholly inside the zone to merge.
    const u64 merged = p & ~(u64{1} << order);
    if (pa_of(merged) < base_ || pa_of(merged + (u64{2} << order)) > end_) break;
    remove(order, buddy);
    p = merged;
    ++order;
  }
  add(order, p);
}

std::optional<PhysAddr> BuddyZone::alloc_pages(unsigned order) {
  if (forced_) {
    // Corrupted-metadata path: hand out whatever the attacker planted.
    const PhysAddr pa = *forced_;
    forced_.reset();
    return pa;
  }
  if (order > kMaxOrder) return std::nullopt;

  // Find the smallest suitable order with a free block; prefer the lowest
  // address across candidate orders to keep high memory free.
  unsigned best_order = 0;
  std::optional<u64> best_pfn;
  for (unsigned o = order; o <= kMaxOrder; ++o) {
    const std::optional<u64> candidate = lowest(o);
    if (candidate && (!best_pfn || *candidate < *best_pfn)) {
      best_pfn = candidate;
      best_order = o;
    }
  }
  if (!best_pfn) return std::nullopt;

  remove(best_order, *best_pfn);
  // Split down to the requested order, returning the low half each time.
  unsigned o = best_order;
  while (o > order) {
    --o;
    add(o, *best_pfn + (u64{1} << o));  // High half stays free.
  }
  free_count_ -= u64{1} << order;
  return pa_of(*best_pfn);
}

void BuddyZone::free_pages(PhysAddr pa, unsigned order) {
  assert(contains(pa, u64{1} << (order + kPageShift)));
  assert((pfn(pa) & ((u64{1} << order) - 1)) == 0 && "misaligned free");
  insert_free(pfn(pa), order);
}

bool BuddyZone::page_is_free(PhysAddr pa) const {
  const u64 p = pfn(pa);
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    if (is_free(o, p & ~((u64{1} << o) - 1))) return true;
  }
  return false;
}

bool BuddyZone::alloc_range(PhysAddr pa, u64 pages) {
  if (pages == 0 || !contains(pa, pages << kPageShift)) return false;
  const u64 lo = pfn(pa);
  const u64 hi = lo + pages;

  // The free blocks overlapping [lo, hi) start in [lo rounded down to the
  // block size, hi); verify they cover the range fully.
  u64 covered = 0;
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    const u64 size = u64{1} << o;
    for (auto b = next_free(o, lo & ~(size - 1), hi); b; b = next_free(o, *b + size, hi)) {
      covered += std::min(*b + size, hi) - std::max(*b, lo);
    }
  }
  if (covered != pages) return false;

  // Remove them, order by order and in address order; re-seed the portions
  // outside the range.
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    const u64 size = u64{1} << o;
    for (auto b = next_free(o, lo & ~(size - 1), hi); b; b = next_free(o, *b + size, hi)) {
      remove(o, *b);
      free_count_ -= size;
      if (*b < lo) seed_range(*b, lo);
      if (*b + size > hi) seed_range(hi, *b + size);
    }
  }
  return true;
}

void BuddyZone::free_range(PhysAddr pa, u64 pages) {
  assert(contains(pa, pages << kPageShift));
  seed_range(pfn(pa), pfn(pa) + pages);
}

bool BuddyZone::donate_front(PhysAddr pa, u64 pages) {
  if (pages == 0 || !is_aligned(pa, kPageSize)) return false;
  if (pa + (pages << kPageShift) != base_) return false;  // Must abut the base.
  base_ = pa;
  seed_range(pfn(pa), pfn(pa) + pages);
  return true;
}

BuddyZone::State BuddyZone::save_state() const {
  State st;
  st.base = base_;
  st.end = end_;
  st.free_count = free_count_;
  for (const auto& [pa, o] : free_blocks()) st.free.emplace_back(pfn(pa), o);
  return st;
}

void BuddyZone::restore_state(const State& st) {
  base_ = st.base;
  end_ = st.end;
  free_count_ = st.free_count;
  forced_.reset();
  for (FreeList& fl : free_) {
    std::fill(fl.words.begin(), fl.words.end(), 0);
    std::fill(fl.summary.begin(), fl.summary.end(), 0);
    fl.count = 0;
  }
  // Insert directly — the saved lists are already maximally coalesced, and
  // insert_free would double-count free_count_.
  for (const auto& [p, o] : st.free) add(o, p);
}

std::vector<std::pair<PhysAddr, unsigned>> BuddyZone::free_blocks() const {
  std::vector<std::pair<PhysAddr, unsigned>> out;
  for (unsigned o = 0; o <= kMaxOrder; ++o) {
    const u64 size = u64{1} << o;
    for (auto b = next_free(o, origin_, limit_); b; b = next_free(o, *b + size, limit_)) {
      out.emplace_back(pa_of(*b), o);
    }
  }
  return out;
}

bool BuddyZone::check_invariants(std::string* why) const {
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  u64 counted = 0;
  std::vector<std::pair<u64, u64>> spans;  // [lo, hi) pfn spans
  // Blocks are aligned to their size by construction (bit i of an order's
  // bitmap is the block at origin_ + (i << order)).
  for (const auto& [pa, o] : free_blocks()) {
    const u64 b = pfn(pa);
    const u64 b_end = b + (u64{1} << o);
    if (pa_of(b) < base_ || pa_of(b_end) > end_) return fail("block outside zone");
    counted += u64{1} << o;
    spans.emplace_back(b, b_end);
    // Buddies free at the same order should have merged.
    if (o < kMaxOrder) {
      const u64 buddy = b ^ (u64{1} << o);
      const u64 merged = b & ~(u64{1} << o);
      const bool mergeable =
          pa_of(merged) >= base_ && pa_of(merged + (u64{2} << o)) <= end_;
      if (mergeable && is_free(o, buddy) && buddy > b) {
        return fail("unmerged buddies");
      }
    }
  }
  if (counted != free_count_) return fail("free_count mismatch");
  std::sort(spans.begin(), spans.end());
  for (size_t i = 1; i < spans.size(); ++i) {
    if (spans[i].first < spans[i - 1].second) return fail("overlapping free blocks");
  }
  return true;
}

}  // namespace ptstore
