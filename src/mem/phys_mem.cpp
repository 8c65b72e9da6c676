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

PhysMem::Frame* PhysMem::materialize(u64 frame) {
  std::unique_ptr<Leaf>& leaf = dir_[frame >> kLeafShift];
  if (!leaf) leaf = std::make_unique<Leaf>();
  std::unique_ptr<Frame>& slot = (*leaf)[frame & (kLeafFrames - 1)];
  slot = std::make_unique<Frame>();
  ++resident_;
  return slot.get();
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
    std::memcpy(written_bytes(pa) + off, src, chunk);
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
    Frame* f = frame_for(pa);
    // Zero bytes into a known-zero frame change nothing; a whole-frame zero
    // fill makes the frame known-zero.
    if (byte != 0 || !f->known_zero) std::memset(f->data + off, byte, chunk);
    f->known_zero = byte == 0 && (f->known_zero || chunk == kPageSize);
    pa += chunk;
    len -= chunk;
  }
}

bool PhysMem::is_zero(PhysAddr pa, u64 len) {
  assert(is_dram(pa, len));
  while (len > 0) {
    const u64 off = (pa - dram_base_) & kPageMask;
    const u64 chunk = std::min<u64>(len, kPageSize - off);
    // Unmaterialized frames are zero by construction.
    Frame* f = find_frame(pa);
    if (f != nullptr && !f->known_zero) {
      for (u64 i = 0; i < chunk; ++i) {
        if (f->data[off + i] != 0) return false;
      }
      if (chunk == kPageSize) f->known_zero = true;
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
  for (auto& leaf : dir_) leaf.reset();
  resident_ = 0;
  ++table_gen_;  // Old frame_write_gen() pointers are now dangling.
  for (const auto& [frame, bytes] : frames) {
    assert(bytes.size() == kPageSize && frame < (dram_size_ >> kPageShift));
    Frame* f = materialize(frame);
    std::memcpy(f->data, bytes.data(), kPageSize);
    f->known_zero = false;
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
    if (f.known_zero || std::all_of(f.data, f.data + kPageSize,
                                    [](u8 b) { return b == 0; })) {
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
