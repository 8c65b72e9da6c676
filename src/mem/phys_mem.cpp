#include "mem/phys_mem.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <mutex>
#include <new>

#if __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>  // No-ops unless built with ASan.
#else
#define ASAN_POISON_MEMORY_REGION(p, len) ((void)(p), (void)(len))
#define ASAN_UNPOISON_MEMORY_REGION(p, len) ((void)(p), (void)(len))
#endif

namespace ptstore {

namespace {

// The process-wide pool of frame pages. Every page in it is all zero.
// Pages are carved from anonymous mappings of kChunkPages pages, which the
// system hands out zeroed and backs only once touched, and are never
// unmapped: a page given back serves the next take. One pool serves every
// thread, because fleet workers build and destroy machines on different
// threads; a mutex guards it (a take or a give is rare next to the
// accesses to the page).
class FramePool {
 public:
  u8* take() {
    u8* page;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        page = free_.back();
        free_.pop_back();
      } else {
        if (next_ == end_) grow();
        page = next_;
        next_ += kPageSize;
      }
    }
    ASAN_UNPOISON_MEMORY_REGION(page, kPageSize);
    return page;
  }

  void give(u8* const* pages, size_t n) {
    for (size_t i = 0; i < n; ++i) ASAN_POISON_MEMORY_REGION(pages[i], kPageSize);
    std::lock_guard<std::mutex> lock(mu_);
    free_.insert(free_.end(), pages, pages + n);
  }

 private:
  static constexpr u64 kChunkPages = 256;

  void grow() {
    const u64 bytes = kChunkPages * kPageSize;
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    // Neighbouring chunks can merge into one mapping; without this, a host
    // with transparent huge pages always on would back 2 MiB at a first
    // touch, and resident memory would depend on the host's setting.
    madvise(p, bytes, MADV_NOHUGEPAGE);
    next_ = static_cast<u8*>(p);
    end_ = next_ + bytes;
    ASAN_POISON_MEMORY_REGION(next_, bytes);
  }

  std::mutex mu_;
  std::vector<u8*> free_;
  u8* next_ = nullptr;  // Unused part of the newest chunk.
  u8* end_ = nullptr;
};

// Never destroyed, so a PhysMem destroyed during static destruction can
// still give its pages back.
FramePool& frame_pool() {
  static FramePool* const pool = new FramePool;
  return *pool;
}

}  // namespace

bool PhysMem::map_device(PhysAddr base, u64 size, MmioDevice* dev) {
  if (size == 0 || dev == nullptr) return false;
  if (ranges_overlap(base, size, dram_base_, dram_size_)) return false;
  for (const auto& w : devices_) {
    if (ranges_overlap(base, size, w.base, w.size)) return false;
  }
  devices_.push_back(Window{base, size, dev});
  return true;
}

const PhysMem::Window* PhysMem::find_device(PhysAddr pa, u64 size) const {
  for (const auto& w : devices_) {
    if (range_contains(w.base, w.size, pa, size)) return &w;
  }
  return nullptr;
}

PhysMem::Frame* PhysMem::materialize(u64 frame, const u8* src) {
  std::unique_ptr<Leaf>& leaf = dir_[frame >> kLeafShift];
  if (!leaf) leaf = std::make_unique<Leaf>();
  Frame& f = (*leaf)[frame & (kLeafFrames - 1)];
  f.data = frame_pool().take();
  if (src != nullptr) {
    std::memcpy(f.data, src, kPageSize);
    f.hi = kPageSize;
  }
  ++resident_;
  return &f;
}

void PhysMem::release_frames() {
  if (resident_ == 0) return;
  for (auto& leaf : dir_) {
    if (!leaf) continue;
    u8* pages[kLeafFrames];
    size_t n = 0;
    for (Frame& f : *leaf) {
      if (f.data == nullptr) continue;
      // Only the extent can hold nonzero bytes; the pool keeps pages zero.
      std::memset(f.data + f.lo, 0, f.hi - f.lo);
      pages[n++] = f.data;
      f = Frame{};
    }
    frame_pool().give(pages, n);
  }
  resident_ = 0;
}

u64 PhysMem::read_slow(PhysAddr pa, unsigned size) {
  if (const Window* w = find_device(pa, size)) {
    return w->dev->mmio_read(pa - w->base, size);
  }
  assert(is_dram(pa, size) && "physical read outside backed memory");
  u64 v = 0;
  read_block(pa, &v, size);
  return v;
}

void PhysMem::write_slow(PhysAddr pa, unsigned size, u64 value) {
  if (const Window* w = find_device(pa, size)) {
    w->dev->mmio_write(pa - w->base, size, value);
    return;
  }
  assert(is_dram(pa, size) && "physical write outside backed memory");
  write_block(pa, &value, size);
}

void PhysMem::read_block(PhysAddr pa, void* out, u64 len) {
  assert(is_dram(pa, len));
  u8* dst = static_cast<u8*>(out);
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    // Reads never materialize frames: untouched memory is zero.
    if (const Frame* f = find_frame(pa)) {
      std::memcpy(dst, f->data + off, chunk);
    } else {
      std::memset(dst, 0, chunk);
    }
    pa += chunk;
    dst += chunk;
    len -= chunk;
  }
}

void PhysMem::write_block(PhysAddr pa, const void* in, u64 len) {
  assert(is_dram(pa, len));
  const u8* src = static_cast<const u8*>(in);
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    const bool zero =
        find_frame(pa) == nullptr &&
        std::all_of(src, src + chunk, [](u8 b) { return b == 0; });
    if (u8* data = written_bytes(pa, off, chunk, zero)) {
      std::memcpy(data + off, src, chunk);
    }
    pa += chunk;
    src += chunk;
    len -= chunk;
  }
}

void PhysMem::fill(PhysAddr pa, u8 byte, u64 len) {
  assert(is_dram(pa, len));
  for (u64 chunk = 0; len > 0; pa += chunk, len -= chunk) {
    const u64 off = (pa - dram_base_) & kPageMask;
    chunk = std::min<u64>(len, kPageSize - off);
    if (byte != 0) {
      std::memset(written_bytes(pa, off, chunk, false) + off, byte, chunk);
      continue;
    }
    Frame* f = find_frame(pa);
    if (f == nullptr) continue;  // An untouched frame already reads as zero.
    ++f->write_gen;
    // Only the dirty extent can hold nonzero bytes: clear its overlap with
    // the fill, and drop the ends the fill covers from it.
    const u64 end = off + chunk;
    const u64 lo = std::max<u64>(off, f->lo);
    const u64 hi = std::min<u64>(end, f->hi);
    if (lo >= hi) continue;
    std::memset(f->data + lo, 0, hi - lo);
    if (off <= f->lo) f->lo = static_cast<u32>(hi);
    if (end >= f->hi) f->hi = static_cast<u32>(lo);
    if (f->lo >= f->hi) f->lo = f->hi = 0;
  }
}

bool PhysMem::is_zero(PhysAddr pa, u64 len) {
  assert(is_dram(pa, len));
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    // Unmaterialized frames are zero by construction, and so is every byte
    // outside a frame's dirty extent.
    if (Frame* f = find_frame(pa)) {
      const u64 lo = std::max<u64>(off, f->lo);
      const u64 hi = std::min<u64>(off + chunk, f->hi);
      for (u64 i = lo; i < hi; ++i) {
        if (f->data[i] != 0) return false;
      }
      if (off <= f->lo && off + chunk >= f->hi) f->lo = f->hi = 0;
    }
    pa += chunk;
    len -= chunk;
  }
  return true;
}

std::vector<std::pair<u64, std::vector<u8>>> PhysMem::snapshot_frames() const {
  std::vector<std::pair<u64, std::vector<u8>>> out;
  out.reserve(resident_);
  for_each_frame([&out](u64 frame, const Frame& f) {
    out.emplace_back(frame, std::vector<u8>(f.data, f.data + kPageSize));
  });
  return out;
}

void PhysMem::restore_frames(
    const std::vector<std::pair<u64, std::vector<u8>>>& frames) {
  release_frames();
  ++table_gen_;  // Old frame_write_gen() pointers now name other frames.
  for (const auto& [frame, bytes] : frames) {
    assert(bytes.size() == kPageSize && frame < (dram_size_ >> kPageShift));
    materialize(frame, bytes.data());
  }
}

u64 PhysMem::content_digest() const {
  u64 h = 0xcbf29ce484222325ULL;  // FNV offset basis.
  auto mix = [&h](const u8* p, u64 len) {
    for (u64 i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;  // FNV prime.
    }
  };
  for_each_frame([&mix](u64 frame, const Frame& f) {
    if (std::all_of(f.data + f.lo, f.data + f.hi, [](u8 b) { return b == 0; })) {
      return;
    }
    const u8 idx[8] = {
        static_cast<u8>(frame), static_cast<u8>(frame >> 8),
        static_cast<u8>(frame >> 16), static_cast<u8>(frame >> 24),
        static_cast<u8>(frame >> 32), static_cast<u8>(frame >> 40),
        static_cast<u8>(frame >> 48), static_cast<u8>(frame >> 56)};
    mix(idx, 8);
    mix(f.data, kPageSize);
  });
  return h;
}

}  // namespace ptstore
