// Slab allocator for small kernel objects, following the Linux design the
// paper extends: caches carry GFP flags selecting the backing zone and a
// constructor run on every new object (§IV-C3). PTStore's token cache is a
// KmemCache with Gfp::kPtStore whose constructor zeroes tokens through
// sd.pt — tokens therefore live in the secure region.
//
// Bookkeeping is flat: each slab page keeps a free and a live bitmap over
// its object slots, and alloc() hands out the lowest free address. Objects
// that are not a slot of one of this cache's slabs (an attacker-forced
// pointer, or a foreign object freed into the cache) are kept apart in
// small ordered sets with the same free/live meaning, so the corrupted-
// freelist semantics are exactly those of plain address sets.
#pragma once

#include <array>
#include <functional>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "kernel/kmem.h"
#include "kernel/page_alloc.h"

namespace ptstore {

class KmemCache {
 public:
  /// `ctor` runs on each object when its backing slab page is created
  /// (Linux semantics: constructed once, reused across alloc/free cycles).
  using Ctor = std::function<void(KernelMem&, PhysAddr obj)>;

  KmemCache(std::string name, u64 obj_size, Gfp gfp, PageAllocator& pages,
            KernelMem& kmem, Ctor ctor = nullptr);

  /// Allocate one object; grows by one slab page when empty. Returns the
  /// object's physical address, or nullopt if the backing zone is exhausted.
  std::optional<PhysAddr> alloc();
  void free(PhysAddr obj);

  const std::string& name() const { return name_; }
  u64 object_size() const { return obj_size_; }
  Gfp gfp() const { return gfp_; }
  u64 objects_in_use() const { return in_use_; }
  u64 slab_pages() const { return slabs_.size(); }

  /// True if `pa` is a live (allocated) object of this cache.
  bool is_live_object(PhysAddr pa) const;

  /// Attack hook: make the next alloc() return `pa` (corrupted freelist).
  void force_next_alloc(PhysAddr pa) { forced_ = pa; }

  /// Cache bookkeeping for full-system checkpoints. Object *contents* live
  /// in simulated memory and are restored with the PhysMem frames; restoring
  /// this state never re-runs the constructor.
  struct State {
    std::vector<PhysAddr> free_objs;  ///< Ascending.
    std::vector<PhysAddr> live_objs;  ///< Ascending.
    std::vector<PhysAddr> slabs;      ///< Ascending.
    u64 in_use = 0;
  };
  State save_state() const;
  void restore_state(const State& st);

  /// Invariants for property tests.
  bool check_invariants(std::string* why = nullptr) const;

 private:
  static constexpr unsigned kMaxSlots = kPageSize / 8;
  using SlotBits = std::array<u64, kMaxSlots / 64>;

  struct Slab {
    PhysAddr page = 0;
    SlotBits free{};  ///< Bit i: the object at page + i * obj_size is free.
    SlotBits live{};  ///< Bit i: ... is live.
    u64 nfree = 0;    ///< Set bits in `free`.
  };

  static bool has(const SlotBits& bits, unsigned slot) {
    return (bits[slot / 64] >> (slot % 64)) & 1;
  }
  /// Index into slabs_ of `page`'s slab, or slabs_.size() if none.
  size_t slab_of(PhysAddr page) const;
  /// Where an address lives: slot `slot` of slabs_[slab], or (slab ==
  /// slabs_.size()) outside every slab slot.
  struct Where {
    size_t slab = 0;
    unsigned slot = 0;
  };
  Where locate(PhysAddr pa) const;
  /// Add `pa` to the free (or live) set.
  void mark(PhysAddr pa, bool live);
  /// Remove `pa` from the free (or live) set.
  void unmark(PhysAddr pa, bool live);
  /// Lowest free object, or nullopt.
  std::optional<PhysAddr> lowest_free();
  bool grow();

  std::string name_;
  u64 obj_size_;
  u64 per_page_;
  Gfp gfp_;
  PageAllocator& pages_;
  KernelMem& kmem_;
  Ctor ctor_;

  std::vector<Slab> slabs_;  ///< Ascending page address.
  size_t first_free_ = 0;    ///< No slab below this index has a free slot.
  std::set<PhysAddr> stray_free_;  ///< Free objects outside every slab slot.
  std::set<PhysAddr> stray_live_;  ///< Live objects outside every slab slot.
  u64 in_use_ = 0;
  std::optional<PhysAddr> forced_;
};

}  // namespace ptstore
