// Sparse physical memory model. DRAM frames are allocated lazily so a
// multi-GiB simulated machine costs only what it touches: a two-level frame
// table maps a frame number to its frame, and a leaf of that table exists
// only once a frame inside its 2 MiB span has been written. Every frame
// carries a write generation (the decode cache's content guard) and a
// known-zero bit that lets is_zero() skip the byte scan. MMIO devices can
// be attached to address windows outside DRAM (used by the generality demo
// in examples/bare_metal_guard).
#pragma once

#include <array>
#include <cassert>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "common/bits.h"
#include "common/types.h"

namespace ptstore {

/// Interface for a memory-mapped device occupying a physical window.
class MmioDevice {
 public:
  virtual ~MmioDevice() = default;
  /// Read `size` bytes (1/2/4/8) at window-relative offset.
  virtual u64 mmio_read(u64 offset, unsigned size) = 0;
  /// Write `size` bytes (1/2/4/8) at window-relative offset.
  virtual void mmio_write(u64 offset, unsigned size, u64 value) = 0;
};

/// Flat physical address space: one DRAM range plus optional MMIO windows.
class PhysMem {
 public:
  /// DRAM occupies [dram_base, dram_base + dram_size).
  PhysMem(PhysAddr dram_base, u64 dram_size)
      : dram_base_(dram_base),
        dram_size_(dram_size),
        dir_(((dram_size >> kPageShift) + kLeafFrames - 1) >> kLeafShift) {}
  // Cores and MMUs keep references to it and to its frames' write_gen.
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  PhysAddr dram_base() const { return dram_base_; }
  u64 dram_size() const { return dram_size_; }
  PhysAddr dram_end() const { return dram_base_ + dram_size_; }

  bool is_dram(PhysAddr pa, u64 size = 1) const {
    return range_contains(dram_base_, dram_size_, pa, size);
  }

  /// Attach an MMIO device at [base, base+size). Must not overlap DRAM or
  /// other devices. Returns false on overlap.
  bool map_device(PhysAddr base, u64 size, MmioDevice* dev);

  bool is_mmio(PhysAddr pa, u64 size = 1) const { return find_device(pa, size) != nullptr; }

  /// True if the address is backed by anything (DRAM or a device).
  bool is_valid(PhysAddr pa, u64 size = 1) const {
    return is_dram(pa, size) || is_mmio(pa, size);
  }

  // Typed accessors. Addresses must be valid; callers (the CPU / kernel
  // accessors) perform validity + permission checks first and turn
  // violations into access faults.
  u8 read_u8(PhysAddr pa) { return static_cast<u8>(read(pa, 1)); }
  u16 read_u16(PhysAddr pa) { return static_cast<u16>(read(pa, 2)); }
  u32 read_u32(PhysAddr pa) { return static_cast<u32>(read(pa, 4)); }
  u64 read_u64(PhysAddr pa) { return read(pa, 8); }

  void write_u8(PhysAddr pa, u8 v) { write(pa, 1, v); }
  void write_u16(PhysAddr pa, u16 v) { write(pa, 2, v); }
  void write_u32(PhysAddr pa, u32 v) { write(pa, 4, v); }
  void write_u64(PhysAddr pa, u64 v) { write(pa, 8, v); }

  /// Little-endian read of `size` bytes (1/2/4/8); may cross frame borders
  /// but not the DRAM/MMIO boundary. DRAM is tested first (no device
  /// window overlaps it); an access inside one frame is served inline.
  u64 read(PhysAddr pa, unsigned size) {
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    if (in_one_dram_frame(pa, size)) {
      u64 v = 0;  // Reads never materialize frames: untouched memory is zero.
      if (const Frame* f = find_frame(pa)) {
        std::memcpy(&v, f->data + ((pa - dram_base_) & kPageMask), size);
      }
      return v;
    }
    return read_slow(pa, size);
  }
  void write(PhysAddr pa, unsigned size, u64 value) {
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    if (in_one_dram_frame(pa, size)) {
      std::memcpy(written_bytes(pa) + ((pa - dram_base_) & kPageMask), &value, size);
      return;
    }
    write_slow(pa, size, value);
  }

  /// Bulk helpers for loaders and the kernel model.
  void read_block(PhysAddr pa, void* out, u64 len);
  void write_block(PhysAddr pa, const void* in, u64 len);
  void fill(PhysAddr pa, u8 byte, u64 len);

  /// True if every byte of [pa, pa+len) is zero. Used by the PTStore kernel's
  /// zero-check defence against allocator-metadata attacks (paper §V-E3).
  /// Frames known to be zero (never written, or last written by a
  /// whole-frame fill(0)) answer without a scan.
  bool is_zero(PhysAddr pa, u64 len);

  /// Number of DRAM frames materialized so far (for memory-pressure stats).
  size_t resident_frames() const { return resident_; }

  /// Pointer to the write-generation counter of the frame containing `pa`,
  /// or nullptr if the address is not DRAM or the frame has never been
  /// written (unmaterialized). The counter is bumped on every write into the
  /// frame, letting consumers (the decode cache) detect content changes
  /// without snooping individual stores. The pointer stays valid until
  /// restore_frames() rebuilds the table — watch frame_table_gen() for that.
  const u64* frame_write_gen(PhysAddr pa) const {
    if (!is_dram(pa)) return nullptr;
    const Frame* f = find_frame(pa);
    return f == nullptr ? nullptr : &f->write_gen;
  }

  /// Bumped whenever the frame table itself is rebuilt (checkpoint restore),
  /// invalidating previously obtained frame_write_gen() pointers.
  u64 frame_table_gen() const { return table_gen_; }

  /// Snapshot/restore of DRAM contents (machine checkpoints). Only
  /// materialized frames are copied, in ascending frame order; restore
  /// drops all current frames.
  std::vector<std::pair<u64, std::vector<u8>>> snapshot_frames() const;
  void restore_frames(const std::vector<std::pair<u64, std::vector<u8>>>& frames);

  /// Order-independent FNV-1a digest of DRAM *contents*: frames are hashed
  /// in ascending frame order and all-zero frames are skipped, so a
  /// materialized-but-zero frame digests the same as an untouched one. Two
  /// machines with identical memory images produce identical digests
  /// regardless of materialization history — the checkpoint round-trip
  /// tests compare these.
  u64 content_digest() const;

 private:
  struct Window {
    PhysAddr base;
    u64 size;
    MmioDevice* dev;
  };

  struct Frame {
    u64 write_gen = 0;
    /// Every byte is zero. Set at materialization and by a whole-frame
    /// fill(0) (or a scan that finds the frame zero); every other write
    /// clears it.
    bool known_zero = true;
    u8 data[kPageSize] = {};
  };

  // Frame table: dir_[frame >> kLeafShift] points at a leaf of kLeafFrames
  // frame slots (one 2 MiB span of DRAM), allocated with its first frame.
  // (A flat table answers one load sooner, but a calloc'd one costs page
  // faults or a clear on every machine built, and machines are built often.)
  static constexpr unsigned kLeafShift = 9;
  static constexpr u64 kLeafFrames = u64{1} << kLeafShift;
  using Leaf = std::array<std::unique_ptr<Frame>, kLeafFrames>;

  bool in_one_dram_frame(PhysAddr pa, unsigned size) const {
    return is_dram(pa, size) && ((pa - dram_base_) & kPageMask) + size <= kPageSize;
  }
  /// The materialized frame holding DRAM address `pa`, or nullptr.
  Frame* find_frame(PhysAddr pa) const {
    const u64 frame = (pa - dram_base_) >> kPageShift;
    const Leaf* leaf = dir_[frame >> kLeafShift].get();
    return leaf == nullptr ? nullptr : (*leaf)[frame & (kLeafFrames - 1)].get();
  }
  /// The frame holding DRAM address `pa`, materialized if needed. Every
  /// caller is a write path, so this bumps the frame's write_gen.
  Frame* frame_for(PhysAddr pa) {
    Frame* f = find_frame(pa);
    if (f == nullptr) f = materialize((pa - dram_base_) >> kPageShift);
    ++f->write_gen;
    return f;
  }
  /// Data of frame_for(pa), about to receive arbitrary bytes.
  u8* written_bytes(PhysAddr pa) {
    Frame* f = frame_for(pa);
    f->known_zero = false;
    return f->data;
  }
  Frame* materialize(u64 frame);
  /// Calls fn(frame number, frame) for every materialized frame, ascending.
  template <typename Fn>
  void for_each_frame(Fn&& fn) const {
    for (u64 d = 0; d < dir_.size(); ++d) {
      if (!dir_[d]) continue;
      for (u64 i = 0; i < kLeafFrames; ++i) {
        if (const Frame* f = (*dir_[d])[i].get()) fn((d << kLeafShift) | i, *f);
      }
    }
  }
  u64 read_slow(PhysAddr pa, unsigned size);
  void write_slow(PhysAddr pa, unsigned size, u64 value);
  const Window* find_device(PhysAddr pa, u64 size) const;

  PhysAddr dram_base_;
  u64 dram_size_;
  std::vector<std::unique_ptr<Leaf>> dir_;
  size_t resident_ = 0;
  u64 table_gen_ = 0;
  std::vector<Window> devices_;
};

}  // namespace ptstore
