// Lockstep oracles for the kernel model's flat bookkeeping. Each test keeps
// the plain ordered-set implementation the flat structure replaced (the
// buddy free lists, the slab free/live sets, PTAuth's tracked pages and
// signed-PTE shadow) and drives both sides with one seeded op stream,
// asserting equal results and an equal save_state() after every op.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/bits.h"
#include "common/rng.h"
#include "kernel/buddy.h"
#include "kernel/slab.h"
#include "kernel/system.h"

namespace ptstore {
namespace {

// ---- BuddyZone vs per-order std::set free lists ----------------------------

class OracleBuddy {
 public:
  OracleBuddy(PhysAddr base, u64 size) : base_(base), end_(base + size) {
    seed_range(base_ >> kPageShift, end_ >> kPageShift);
  }

  std::optional<PhysAddr> alloc_pages(unsigned order) {
    if (forced_) {
      const PhysAddr pa = *forced_;
      forced_.reset();
      return pa;
    }
    if (order > kMaxOrder) return std::nullopt;
    bool found = false;
    unsigned best_order = 0;
    u64 best = 0;
    for (unsigned o = order; o <= kMaxOrder; ++o) {
      if (free_[o].empty()) continue;
      if (!found || *free_[o].begin() < best) {
        found = true;
        best = *free_[o].begin();
        best_order = o;
      }
    }
    if (!found) return std::nullopt;
    free_[best_order].erase(best);
    for (unsigned o = best_order; o > order;) {
      --o;
      free_[o].insert(best + (u64{1} << o));
    }
    free_count_ -= u64{1} << order;
    return best << kPageShift;
  }
  void free_pages(PhysAddr pa, unsigned order) { insert_free(pa >> kPageShift, order); }
  bool alloc_range(PhysAddr pa, u64 pages) {
    if (pages == 0 || pa < base_ || pa + (pages << kPageShift) > end_) return false;
    const u64 lo = pa >> kPageShift, hi = lo + pages;
    u64 covered = 0;
    for (unsigned o = 0; o <= kMaxOrder; ++o) {
      for (const u64 b : free_[o]) {
        const u64 b_end = b + (u64{1} << o);
        if (b_end > lo && b < hi) covered += std::min(b_end, hi) - std::max(b, lo);
      }
    }
    if (covered != pages) return false;
    for (unsigned o = 0; o <= kMaxOrder; ++o) {
      for (auto it = free_[o].begin(); it != free_[o].end();) {
        const u64 b = *it, b_end = b + (u64{1} << o);
        if (b_end <= lo || b >= hi) {
          ++it;
          continue;
        }
        it = free_[o].erase(it);
        free_count_ -= u64{1} << o;
        if (b < lo) seed_range(b, lo);
        if (b_end > hi) seed_range(hi, b_end);
      }
    }
    return true;
  }
  void free_range(PhysAddr pa, u64 pages) {
    seed_range(pa >> kPageShift, (pa >> kPageShift) + pages);
  }
  bool donate_front(PhysAddr pa, u64 pages) {
    if (pages == 0 || !is_aligned(pa, kPageSize)) return false;
    if (pa + (pages << kPageShift) != base_) return false;
    base_ = pa;
    seed_range(pa >> kPageShift, (pa >> kPageShift) + pages);
    return true;
  }
  bool page_is_free(PhysAddr pa) const {
    const u64 p = pa >> kPageShift;
    for (unsigned o = 0; o <= kMaxOrder; ++o) {
      for (const u64 b : free_[o]) {
        if (p >= b && p < b + (u64{1} << o)) return true;
      }
    }
    return false;
  }
  void force_next_alloc(PhysAddr pa) { forced_ = pa; }
  BuddyZone::State save_state() const {
    BuddyZone::State st{base_, end_, free_count_, {}};
    for (unsigned o = 0; o <= kMaxOrder; ++o) {
      for (const u64 b : free_[o]) st.free.emplace_back(b, o);
    }
    return st;
  }
  void restore_state(const BuddyZone::State& st) {
    base_ = st.base;
    end_ = st.end;
    free_count_ = st.free_count;
    forced_.reset();
    for (auto& lvl : free_) lvl.clear();
    for (const auto& [p, o] : st.free) free_[o].insert(p);
  }

 private:
  void seed_range(u64 lo, u64 hi) {
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
  void insert_free(u64 p, unsigned order) {
    free_count_ += u64{1} << order;
    while (order < kMaxOrder) {
      const u64 buddy = p ^ (u64{1} << order);
      auto it = free_[order].find(buddy);
      if (it == free_[order].end()) break;
      const u64 merged = p & ~(u64{1} << order);
      if ((merged << kPageShift) < base_ ||
          ((merged + (u64{2} << order)) << kPageShift) > end_) {
        break;
      }
      free_[order].erase(it);
      p = merged;
      ++order;
    }
    free_[order].insert(p);
  }

  PhysAddr base_, end_;
  u64 free_count_ = 0;
  std::array<std::set<u64>, kMaxOrder + 1> free_;
  std::optional<PhysAddr> forced_;
};

void expect_same(const BuddyZone::State& a, const BuddyZone::State& b, int step) {
  ASSERT_EQ(a.base, b.base) << step;
  ASSERT_EQ(a.end, b.end) << step;
  ASSERT_EQ(a.free_count, b.free_count) << step;
  ASSERT_EQ(a.free, b.free) << step;
}

class BuddyOracle : public ::testing::TestWithParam<u64> {};

TEST_P(BuddyOracle, SeededOpStreamMatchesSetFreeLists) {
  // An unaligned base and size, well above DRAM's start so donate_front can
  // grow the zone downward several times.
  const PhysAddr base = 0x9000'0000 + 37 * kPageSize;
  const u64 size = MiB(3) + 11 * kPageSize;
  BuddyZone zone("z", base, size);
  OracleBuddy oracle(base, size);
  Rng rng(GetParam());
  std::vector<std::pair<PhysAddr, unsigned>> blocks;  // Allocated by alloc_pages.
  std::vector<std::pair<PhysAddr, u64>> ranges;       // Carved by alloc_range.
  BuddyZone::State saved = zone.save_state();
  for (int step = 0; step < 4000; ++step) {
    const u64 op = rng.next_below(100);
    const BuddyZone::State now = zone.save_state();
    if (op < 35) {
      const unsigned order = rng.chance(0.9) ? static_cast<unsigned>(rng.next_below(4))
                                             : static_cast<unsigned>(rng.next_below(12));
      const auto a = zone.alloc_pages(order);
      ASSERT_EQ(a, oracle.alloc_pages(order)) << step;
      if (a) blocks.emplace_back(*a, order);
    } else if (op < 65 && !blocks.empty()) {
      const size_t i = rng.next_below(blocks.size());
      zone.free_pages(blocks[i].first, blocks[i].second);
      oracle.free_pages(blocks[i].first, blocks[i].second);
      blocks.erase(blocks.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 72) {
      const u64 span = (now.end - now.base) >> kPageShift;
      const PhysAddr pa = now.base + (rng.next_below(span) << kPageShift);
      const u64 pages = 1 + rng.next_below(48);
      const bool ok = zone.alloc_range(pa, pages);
      ASSERT_EQ(ok, oracle.alloc_range(pa, pages)) << step;
      if (ok) ranges.emplace_back(pa, pages);
    } else if (op < 78 && !ranges.empty()) {
      const size_t i = rng.next_below(ranges.size());
      zone.free_range(ranges[i].first, ranges[i].second);
      oracle.free_range(ranges[i].first, ranges[i].second);
      ranges.erase(ranges.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 81) {
      // Grow downward; now and then a request that does not abut the base.
      const u64 pages = 1 + rng.next_below(1100);
      PhysAddr pa = now.base - (pages << kPageShift);
      if (rng.chance(0.2)) pa -= kPageSize;
      ASSERT_EQ(zone.donate_front(pa, pages), oracle.donate_front(pa, pages)) << step;
    } else if (op < 84) {
      // Corrupted metadata: the next allocation returns any page, free or
      // not, and the kernel later frees it like any other.
      const u64 span = (now.end - now.base) >> kPageShift;
      const PhysAddr pa = now.base + (rng.next_below(span) << kPageShift);
      zone.force_next_alloc(pa);
      oracle.force_next_alloc(pa);
      const auto a = zone.alloc_pages(0);
      ASSERT_EQ(a, oracle.alloc_pages(0)) << step;
      if (rng.chance(0.5)) blocks.emplace_back(*a, 0);
    } else if (op < 90) {
      const PhysAddr pa = now.base - MiB(1) + (rng.next_below(MiB(6)) & ~kPageMask);
      ASSERT_EQ(zone.page_is_free(pa), oracle.page_is_free(pa)) << step;
    } else if (op < 95) {
      saved = zone.save_state();
      expect_same(saved, oracle.save_state(), step);
    } else {
      zone.restore_state(saved);
      oracle.restore_state(saved);
      blocks.clear();
      ranges.clear();
    }
    expect_same(zone.save_state(), oracle.save_state(), step);
    ASSERT_EQ(zone.free_pages_count(), oracle.save_state().free_count) << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyOracle, ::testing::Values(1, 2, 3, 4));

// ---- KmemCache vs free/live/slab std::sets ---------------------------------

class OracleSlab {
 public:
  OracleSlab(u64 obj_size, PageAllocator& pages, std::vector<PhysAddr>* ctor_log)
      : obj_size_(align_up(obj_size, 8)), pages_(pages), ctor_log_(ctor_log) {}

  std::optional<PhysAddr> alloc() {
    if (forced_) {
      const PhysAddr pa = *forced_;
      forced_.reset();
      live_.insert(pa);
      ++in_use_;
      return pa;
    }
    if (free_.empty() && !grow()) return std::nullopt;
    const PhysAddr obj = *free_.begin();
    free_.erase(free_.begin());
    live_.insert(obj);
    ++in_use_;
    return obj;
  }
  void free(PhysAddr obj) {
    live_.erase(obj);
    free_.insert(obj);
    --in_use_;
  }
  bool is_live_object(PhysAddr pa) const { return live_.count(pa) != 0; }
  void force_next_alloc(PhysAddr pa) { forced_ = pa; }
  KmemCache::State save_state() const {
    return {{free_.begin(), free_.end()}, {live_.begin(), live_.end()},
            {slabs_.begin(), slabs_.end()}, in_use_};
  }
  void restore_state(const KmemCache::State& st) {
    free_ = {st.free_objs.begin(), st.free_objs.end()};
    live_ = {st.live_objs.begin(), st.live_objs.end()};
    slabs_ = {st.slabs.begin(), st.slabs.end()};
    in_use_ = st.in_use;
    forced_.reset();
  }
  bool check_invariants(std::string* why) const {
    if (in_use_ != live_.size()) return *why = "in_use mismatch", false;
    for (const PhysAddr obj : free_) {
      if (live_.count(obj) != 0) return *why = "object both free and live", false;
    }
    u64 total = 0, foreign = 0;
    for (const PhysAddr slab : slabs_) {
      for (u64 i = 0; i < kPageSize / obj_size_; ++i) {
        const PhysAddr obj = slab + i * obj_size_;
        total += (free_.count(obj) != 0 || live_.count(obj) != 0) ? 1 : 0;
      }
    }
    for (const PhysAddr obj : live_) {
      if (slabs_.count(align_down(obj, kPageSize)) == 0) ++foreign;
    }
    if (total + foreign != free_.size() + live_.size()) {
      return *why = "slab slot accounting mismatch", false;
    }
    return true;
  }

 private:
  bool grow() {
    const auto page = pages_.alloc_pages(Gfp::kKernel, 0);
    if (!page) return false;
    slabs_.insert(*page);
    for (u64 i = 0; i < kPageSize / obj_size_; ++i) {
      ctor_log_->push_back(*page + i * obj_size_);
      free_.insert(*page + i * obj_size_);
    }
    return true;
  }

  u64 obj_size_;
  PageAllocator& pages_;
  std::vector<PhysAddr>* ctor_log_;
  std::set<PhysAddr> free_, live_, slabs_;
  u64 in_use_ = 0;
  std::optional<PhysAddr> forced_;
};

void expect_same(const KmemCache::State& a, const KmemCache::State& b, int step) {
  ASSERT_EQ(a.free_objs, b.free_objs) << step;
  ASSERT_EQ(a.live_objs, b.live_objs) << step;
  ASSERT_EQ(a.slabs, b.slabs) << step;
  ASSERT_EQ(a.in_use, b.in_use) << step;
}

/// The normal zone's next page: the lowest free block.
PhysAddr next_free_page(Kernel& k) {
  const auto blocks = k.pages().normal().free_blocks();
  PhysAddr lowest = ~PhysAddr{0};
  for (const auto& [pa, o] : blocks) lowest = std::min(lowest, pa);
  return lowest;
}

class SlabOracle : public ::testing::TestWithParam<std::pair<u64, u64>> {};

TEST_P(SlabOracle, SeededOpStreamMatchesObjectSets) {
  const auto [obj_size, seed] = GetParam();
  // Two identical machines, so both sides get the same slab pages.
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  System sys_a(cfg), sys_b(cfg);
  std::vector<PhysAddr> ctor_a, ctor_b;
  KmemCache cache("t", obj_size, Gfp::kKernel, sys_a.kernel().pages(),
                  sys_a.kernel().kmem(),
                  [&](KernelMem&, PhysAddr obj) { ctor_a.push_back(obj); });
  OracleSlab oracle(obj_size, sys_b.kernel().pages(), &ctor_b);
  Rng rng(seed);
  std::vector<PhysAddr> live;
  KmemCache::State saved = cache.save_state();
  auto pick_live = [&]() { return live[rng.next_below(live.size())]; };
  for (int step = 0; step < 3000; ++step) {
    const u64 op = rng.next_below(100);
    if (op < 45) {
      const auto a = cache.alloc();
      ASSERT_EQ(a, oracle.alloc()) << step;
      ASSERT_TRUE(a.has_value());
      live.push_back(*a);
    } else if (op < 80 && !live.empty()) {
      const size_t i = rng.next_below(live.size());
      if (cache.is_live_object(live[i])) {
        cache.free(live[i]);
        oracle.free(live[i]);
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else if (op < 88) {
      // Corrupted freelist: a live object (overlap), a stray 8-byte-aligned
      // address inside a slab page, a foreign page, a slot of the page the
      // cache will grow into next, or an object that is still free.
      const KmemCache::State st = cache.save_state();
      PhysAddr pa = 0;
      switch (rng.next_below(5)) {
        case 0:
          pa = live.empty() ? next_free_page(sys_a.kernel()) : pick_live();
          break;
        case 1:
          pa = st.slabs.empty() ? next_free_page(sys_a.kernel())
                                : st.slabs[rng.next_below(st.slabs.size())] +
                                      8 * rng.next_below(kPageSize / 8);
          break;
        case 2:
          pa = next_free_page(sys_a.kernel()) + MiB(1) + 8 * rng.next_below(512);
          break;
        case 3:
          pa = next_free_page(sys_a.kernel()) +
               align_up(obj_size, 8) * rng.next_below(kPageSize / align_up(obj_size, 8));
          break;
        default:
          pa = st.free_objs.empty() ? next_free_page(sys_a.kernel())
                                    : st.free_objs[rng.next_below(st.free_objs.size())];
          break;
      }
      cache.force_next_alloc(pa);
      oracle.force_next_alloc(pa);
      const auto a = cache.alloc();
      ASSERT_EQ(a, oracle.alloc()) << step;
      if (rng.chance(0.5)) live.push_back(*a);
    } else if (op < 92) {
      const PhysAddr pa = live.empty() ? 0 : pick_live() + 8 * rng.next_below(3);
      ASSERT_EQ(cache.is_live_object(pa), oracle.is_live_object(pa)) << step;
    } else if (op < 96) {
      saved = cache.save_state();
    } else {
      cache.restore_state(saved);
      oracle.restore_state(saved);
      live = saved.live_objs;
    }
    expect_same(cache.save_state(), oracle.save_state(), step);
    ASSERT_EQ(ctor_a, ctor_b) << step;
    ASSERT_EQ(cache.objects_in_use(), oracle.save_state().in_use) << step;
    ASSERT_EQ(cache.slab_pages(), oracle.save_state().slabs.size()) << step;
    std::string why_a, why_b;
    ASSERT_EQ(cache.check_invariants(&why_a), oracle.check_invariants(&why_b)) << step;
    ASSERT_EQ(why_a, why_b) << step;
  }
}

INSTANTIATE_TEST_SUITE_P(SizesAndSeeds, SlabOracle,
                         ::testing::Values(std::pair<u64, u64>{16, 1},
                                           std::pair<u64, u64>{48, 2},
                                           std::pair<u64, u64>{64, 3},
                                           std::pair<u64, u64>{8, 4}));

// ---- PTAuth shadow vs tracked-page set + slot map ---------------------------

class OracleShadow {
 public:
  void accept(PhysAddr page) {
    tracked_.insert(page);
    erase_page(page);
  }
  void release(PhysAddr page) {
    tracked_.erase(page);
    erase_page(page);
  }
  void on_pt_write(PhysAddr va, u64 v) {
    if (tracked_.count(align_down(va, kPageSize)) == 0) return;
    if (v == 0) {
      shadow_.erase(va);
    } else {
      shadow_[va] = v;
    }
  }
  void on_pt_page_zeroed(PhysAddr page) { erase_page(page); }
  void on_pt_page_copied(PhysAddr dst, PhysAddr src, PhysMem& mem) {
    if (tracked_.count(dst) == 0) return;
    erase_page(dst);
    for (u64 off = 0; off < kPageSize; off += 8) {
      const u64 v = mem.read_u64(src + off);
      if (v != 0) shadow_[dst + off] = v;
    }
  }
  bool check_pte_fetch(PhysAddr a, u64 pte, Cycles* cost, Cycles mac) const {
    if (tracked_.count(align_down(a, kPageSize)) == 0) return true;
    *cost += mac;
    const auto it = shadow_.find(a);
    return pte == (it == shadow_.end() ? 0 : it->second);
  }
  void on_hw_pte_update(PhysAddr a, u64 pte) {
    if (tracked_.count(align_down(a, kPageSize)) != 0) shadow_[a] = pte;
  }
  u64 signed_pte(PhysAddr a) const {
    const auto it = shadow_.find(a);
    return it == shadow_.end() ? 0 : it->second;
  }
  BackendState save_state() const {
    BackendState st;
    st.pages.assign(tracked_.begin(), tracked_.end());
    st.shadow.assign(shadow_.begin(), shadow_.end());
    return st;
  }
  void restore_state(const BackendState& st) {
    tracked_ = {st.pages.begin(), st.pages.end()};
    shadow_ = {st.shadow.begin(), st.shadow.end()};
  }

 private:
  void erase_page(PhysAddr page) {
    shadow_.erase(shadow_.lower_bound(page), shadow_.lower_bound(page + kPageSize));
  }
  std::set<PhysAddr> tracked_;
  std::map<PhysAddr, u64> shadow_;
};

class PtauthShadowOracle : public ::testing::TestWithParam<u64> {};

TEST_P(PtauthShadowOracle, SeededHookStreamMatchesSlotMap) {
  System sys(SystemConfig::ptauth());
  Kernel& k = sys.kernel();
  IsolationBackend& be = k.isolation();
  WalkVerifier* wv = be.walk_verifier();
  ASSERT_NE(wv, nullptr);
  const Cycles mac = be.caps().mac_cost;
  std::vector<PhysAddr> pages;  // Candidate PT pages, tracked or not.
  for (int i = 0; i < 12; ++i) {
    const auto pa = k.pages().alloc_pages(Gfp::kKernel, 0);
    ASSERT_TRUE(pa.has_value());
    pages.push_back(*pa);
  }
  OracleShadow oracle;
  oracle.restore_state(be.save_state());  // Boot-time PT pages.
  Rng rng(GetParam());
  auto page = [&]() { return pages[rng.next_below(pages.size())]; };
  auto slot = [&]() { return page() + 8 * rng.next_below(8 + 8 * rng.next_below(64)); };
  auto value = [&]() { return rng.chance(0.3) ? 0 : rng.next_u64() | 1; };
  BackendState saved = be.save_state();
  for (int step = 0; step < 5000; ++step) {
    switch (rng.next_below(10)) {
      case 0: {
        const PhysAddr p = page();
        ASSERT_TRUE(be.accept_pt_page(p).ok) << step;
        oracle.accept(p);
        break;
      }
      case 1: {
        const PhysAddr p = page();
        be.release_pt_page(p);
        oracle.release(p);
        break;
      }
      case 2:
      case 3: {
        const PhysAddr a = slot();
        const u64 v = value();
        be.on_pt_write(a, v);
        oracle.on_pt_write(a, v);
        break;
      }
      case 4: {
        const PhysAddr p = page();
        be.on_pt_page_zeroed(p);
        oracle.on_pt_page_zeroed(p);
        break;
      }
      case 5: {
        const PhysAddr dst = page(), src = page();
        if (dst == src) break;
        for (int i = 0; i < 6; ++i) sys.mem().write_u64(src + 8 * rng.next_below(512), value());
        be.on_pt_page_copied(dst, src);
        oracle.on_pt_page_copied(dst, src, sys.mem());
        break;
      }
      case 6:
      case 7: {
        const PhysAddr a = slot();
        const u64 pte = rng.chance(0.6) ? oracle.signed_pte(a) : value();
        Cycles cost_a = 0, cost_b = 0;
        ASSERT_EQ(wv->check_pte_fetch(a, pte, &cost_a),
                  oracle.check_pte_fetch(a, pte, &cost_b, mac))
            << step;
        ASSERT_EQ(cost_a, cost_b) << step;
        break;
      }
      case 8: {
        const PhysAddr a = slot();
        const u64 pte = rng.chance(0.1) ? 0 : value();
        wv->on_hw_pte_update(a, pte);
        oracle.on_hw_pte_update(a, pte);
        break;
      }
      default:
        if (rng.chance(0.5)) {
          saved = be.save_state();
        } else {
          be.restore_state(saved);
          oracle.restore_state(saved);
        }
        break;
    }
    const BackendState a = be.save_state(), b = oracle.save_state();
    ASSERT_EQ(a.pages, b.pages) << step;
    ASSERT_EQ(a.shadow, b.shadow) << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PtauthShadowOracle, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ptstore
