#include "mem/phys_mem.h"

#include <algorithm>
#include <cassert>

namespace ptstore {

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

PhysMem::Frame* PhysMem::find_frame_slow(u64 frame) {
  auto it = frames_.find(frame);
  if (it == frames_.end()) return nullptr;
  memo_frame_ = frame;
  memo_ = &it->second;
  return memo_;
}

PhysMem::Frame* PhysMem::materialize(u64 frame) {
  auto buf = std::make_unique<u8[]>(kPageSize);
  std::memset(buf.get(), 0, kPageSize);
  memo_frame_ = frame;
  memo_ = &frames_.emplace(frame, Frame{std::move(buf), 0}).first->second;
  return memo_;
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
      std::memcpy(dst, f->data.get() + off, chunk);
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
    std::memcpy(frame_for(pa) + off, src, chunk);
    pa += chunk;
    src += chunk;
    len -= chunk;
  }
}

void PhysMem::fill(PhysAddr pa, u8 byte, u64 len) {
  assert(is_dram(pa, len));
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    std::memset(frame_for(pa) + off, byte, chunk);
    pa += chunk;
    len -= chunk;
  }
}

bool PhysMem::is_zero(PhysAddr pa, u64 len) {
  assert(is_dram(pa, len));
  while (len > 0) {
    const u64 frame = (pa - dram_base_) >> kPageShift;
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    auto it = frames_.find(frame);
    if (it != frames_.end()) {
      const u8* p = it->second.data.get() + off;
      for (u64 i = 0; i < chunk; ++i) {
        if (p[i] != 0) return false;
      }
    }
    // Unmaterialized frames are zero by construction.
    pa += chunk;
    len -= chunk;
  }
  return true;
}

std::vector<std::pair<u64, std::vector<u8>>> PhysMem::snapshot_frames() const {
  std::vector<std::pair<u64, std::vector<u8>>> out;
  out.reserve(frames_.size());
  for (const auto& [frame, f] : frames_) {
    out.emplace_back(frame,
                     std::vector<u8>(f.data.get(), f.data.get() + kPageSize));
  }
  return out;
}

void PhysMem::restore_frames(
    const std::vector<std::pair<u64, std::vector<u8>>>& frames) {
  frames_.clear();
  ++table_gen_;  // Old frame_write_gen() pointers are now dangling.
  memo_frame_ = ~u64{0};
  memo_ = nullptr;
  for (const auto& [frame, bytes] : frames) {
    assert(bytes.size() == kPageSize);
    auto buf = std::make_unique<u8[]>(kPageSize);
    std::memcpy(buf.get(), bytes.data(), kPageSize);
    frames_.emplace(frame, Frame{std::move(buf), 0});
  }
}

u64 PhysMem::content_digest() const {
  std::vector<u64> indices;
  indices.reserve(frames_.size());
  for (const auto& [frame, f] : frames_) indices.push_back(frame);
  std::sort(indices.begin(), indices.end());

  u64 h = 0xcbf29ce484222325ULL;  // FNV offset basis.
  auto mix = [&h](const u8* p, u64 len) {
    for (u64 i = 0; i < len; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ULL;  // FNV prime.
    }
  };
  for (const u64 frame : indices) {
    const Frame& f = frames_.at(frame);
    bool all_zero = true;
    for (u64 i = 0; i < kPageSize; ++i) {
      if (f.data[i] != 0) {
        all_zero = false;
        break;
      }
    }
    if (all_zero) continue;
    const u8 idx[8] = {
        static_cast<u8>(frame), static_cast<u8>(frame >> 8),
        static_cast<u8>(frame >> 16), static_cast<u8>(frame >> 24),
        static_cast<u8>(frame >> 32), static_cast<u8>(frame >> 40),
        static_cast<u8>(frame >> 48), static_cast<u8>(frame >> 56)};
    mix(idx, 8);
    mix(f.data.get(), kPageSize);
  }
  return h;
}

}  // namespace ptstore
