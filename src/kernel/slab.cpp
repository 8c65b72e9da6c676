#include "kernel/slab.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/bits.h"

namespace ptstore {

KmemCache::KmemCache(std::string name, u64 obj_size, Gfp gfp, PageAllocator& pages,
                     KernelMem& kmem, Ctor ctor)
    : name_(std::move(name)),
      obj_size_(align_up(obj_size, 8)),
      per_page_(kPageSize / obj_size_),
      gfp_(gfp),
      pages_(pages),
      kmem_(kmem),
      ctor_(std::move(ctor)) {
  assert(obj_size_ >= 8 && obj_size_ <= kPageSize);
}

size_t KmemCache::slab_of(PhysAddr page) const {
  const auto it = std::lower_bound(
      slabs_.begin(), slabs_.end(), page,
      [](const Slab& s, PhysAddr p) { return s.page < p; });
  return it != slabs_.end() && it->page == page
             ? static_cast<size_t>(it - slabs_.begin())
             : slabs_.size();
}

KmemCache::Where KmemCache::locate(PhysAddr pa) const {
  const PhysAddr page = align_down(pa, kPageSize);
  const size_t slab = slab_of(page);
  const u64 off = pa - page;
  if (slab == slabs_.size() || off % obj_size_ != 0 || off / obj_size_ >= per_page_) {
    return {slabs_.size()};
  }
  return {slab, static_cast<unsigned>(off / obj_size_)};
}

void KmemCache::mark(PhysAddr pa, bool live) {
  const Where w = locate(pa);
  if (w.slab == slabs_.size()) {
    (live ? stray_live_ : stray_free_).insert(pa);
    return;
  }
  Slab& s = slabs_[w.slab];
  SlotBits& bits = live ? s.live : s.free;
  if (has(bits, w.slot)) return;
  bits[w.slot / 64] |= u64{1} << (w.slot % 64);
  if (!live) {
    ++s.nfree;
    first_free_ = std::min(first_free_, w.slab);
  }
}

void KmemCache::unmark(PhysAddr pa, bool live) {
  const Where w = locate(pa);
  if (w.slab == slabs_.size()) {
    (live ? stray_live_ : stray_free_).erase(pa);
    return;
  }
  Slab& s = slabs_[w.slab];
  SlotBits& bits = live ? s.live : s.free;
  if (!has(bits, w.slot)) return;
  bits[w.slot / 64] &= ~(u64{1} << (w.slot % 64));
  if (!live) --s.nfree;
}

std::optional<PhysAddr> KmemCache::lowest_free() {
  while (first_free_ < slabs_.size() && slabs_[first_free_].nfree == 0) ++first_free_;
  std::optional<PhysAddr> best;
  if (first_free_ < slabs_.size()) {
    const Slab& s = slabs_[first_free_];
    unsigned w = 0;
    while (s.free[w] == 0) ++w;
    best = s.page + (64 * w + std::countr_zero(s.free[w])) * obj_size_;
  }
  if (!stray_free_.empty() && (!best || *stray_free_.begin() < *best)) {
    best = *stray_free_.begin();
  }
  return best;
}

bool KmemCache::grow() {
  const auto page = pages_.alloc_pages(gfp_, 0);
  if (!page) return false;
  if (slab_of(*page) == slabs_.size()) {
    const auto at = std::lower_bound(
        slabs_.begin(), slabs_.end(), *page,
        [](const Slab& s, PhysAddr p) { return s.page < p; });
    const size_t idx = static_cast<size_t>(at - slabs_.begin());
    slabs_.insert(at, Slab{.page = *page});
    first_free_ = std::min(first_free_, idx);
    // Stray objects at the new page's slots become slots.
    for (std::set<PhysAddr>* stray : {&stray_free_, &stray_live_}) {
      const bool live = stray == &stray_live_;
      auto it = stray->lower_bound(*page);
      while (it != stray->end() && *it < *page + kPageSize) {
        const PhysAddr pa = *it;
        if (locate(pa).slab == slabs_.size()) {
          ++it;
          continue;
        }
        it = stray->erase(it);
        mark(pa, live);
      }
    }
  }
  for (u64 i = 0; i < per_page_; ++i) {
    const PhysAddr obj = *page + i * obj_size_;
    if (ctor_) ctor_(kmem_, obj);
    mark(obj, false);
  }
  return true;
}

std::optional<PhysAddr> KmemCache::alloc() {
  if (forced_) {
    // Corrupted-freelist path: hand out the attacker-planted pointer.
    const PhysAddr pa = *forced_;
    forced_.reset();
    mark(pa, true);
    ++in_use_;
    return pa;
  }
  std::optional<PhysAddr> obj = lowest_free();
  if (!obj) {
    if (!grow()) return std::nullopt;
    obj = lowest_free();
  }
  unmark(*obj, false);
  mark(*obj, true);
  ++in_use_;
  return obj;
}

void KmemCache::free(PhysAddr obj) {
  assert(is_live_object(obj) && "double free or foreign object");
  unmark(obj, true);
  mark(obj, false);
  --in_use_;
}

bool KmemCache::is_live_object(PhysAddr pa) const {
  const Where w = locate(pa);
  return w.slab == slabs_.size() ? stray_live_.count(pa) != 0
                                 : has(slabs_[w.slab].live, w.slot);
}

KmemCache::State KmemCache::save_state() const {
  State st;
  for (const bool live : {false, true}) {
    std::vector<PhysAddr> slots;
    for (const Slab& s : slabs_) {
      const SlotBits& bits = live ? s.live : s.free;
      for (unsigned i = 0; i < per_page_; ++i) {
        if (has(bits, i)) slots.push_back(s.page + i * obj_size_);
      }
    }
    const std::set<PhysAddr>& stray = live ? stray_live_ : stray_free_;
    std::vector<PhysAddr>& out = live ? st.live_objs : st.free_objs;
    std::merge(slots.begin(), slots.end(), stray.begin(), stray.end(),
               std::back_inserter(out));
  }
  for (const Slab& s : slabs_) st.slabs.push_back(s.page);
  st.in_use = in_use_;
  return st;
}

void KmemCache::restore_state(const State& st) {
  slabs_.clear();
  for (const PhysAddr page : st.slabs) slabs_.push_back(Slab{.page = page});
  first_free_ = 0;
  stray_free_.clear();
  stray_live_.clear();
  for (const PhysAddr pa : st.free_objs) mark(pa, false);
  for (const PhysAddr pa : st.live_objs) mark(pa, true);
  in_use_ = st.in_use;
  forced_.reset();
}

bool KmemCache::check_invariants(std::string* why) const {
  auto fail = [&](const char* msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  u64 free_count = stray_free_.size();
  u64 live_count = stray_live_.size();
  u64 total = 0;  // Slab slots that are free or live.
  bool both = false;
  for (const Slab& s : slabs_) {
    for (unsigned w = 0; w < s.free.size(); ++w) {
      free_count += std::popcount(s.free[w]);
      live_count += std::popcount(s.live[w]);
      total += std::popcount(s.free[w] | s.live[w]);
      both = both || (s.free[w] & s.live[w]) != 0;
    }
  }
  for (const PhysAddr pa : stray_free_) both = both || stray_live_.count(pa) != 0;
  if (in_use_ != live_count) return fail("in_use mismatch");
  if (both) return fail("object both free and live");
  // Every slab slot is either free or live (forced attack objects excepted).
  u64 foreign = 0;
  for (const PhysAddr obj : stray_live_) {
    if (slab_of(align_down(obj, kPageSize)) == slabs_.size()) ++foreign;
  }
  if (total + foreign != free_count + live_count) {
    return fail("slab slot accounting mismatch");
  }
  return true;
}

}  // namespace ptstore
