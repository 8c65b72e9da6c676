// Sparse physical memory model. DRAM frames are allocated lazily so a
// multi-GiB simulated machine costs only what it touches: a two-level frame
// table maps a frame number to its frame, and a leaf of that table exists
// only once a frame inside its span has been written with data.
// Storing zeros never materializes a frame: an all-zero write, block write
// or fill into an untouched frame is a no-op (untouched memory reads as
// zero), so scrubbing memory that was never written costs no allocation.
//
// Frame layout (a coremap): each leaf slot holds one frame's header, its
// write generation (the decode cache's content guard) and its dirty byte
// extent [lo, hi) outside which it is known to be zero, next to a pointer
// to the frame's data. The data is a page-aligned 4 KiB page carved from a
// large anonymous mapping and shared through a process-wide, mutex-guarded
// pool of zeroed pages: a destroyed PhysMem or a restore_frames() zeroes
// the extent of each page it drops and hands the page back, and the next
// machine or checkpoint fork reuses it without a malloc or a first-touch
// page fault. A whole-frame zero fill clears only the extent and is_zero()
// scans only what the extent covers. Under AddressSanitizer a page is
// poisoned while it sits in the pool. MMIO devices can be attached to
// address windows outside DRAM (used by the generality demo in
// examples/bare_metal_guard).
#pragma once

#include <algorithm>
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
  /// Hands every frame's page back to the pool.
  ~PhysMem() { release_frames(); }
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
    return is_dram(pa, size) ? read_dram(pa, size) : read_slow(pa, size);
  }
  /// Storing zero into an untouched frame changes nothing and leaves the
  /// frame unmaterialized (no write_gen, no snapshot entry).
  void write(PhysAddr pa, unsigned size, u64 value) {
    if (is_dram(pa, size)) {
      write_dram(pa, size, value);
    } else {
      write_slow(pa, size, value);
    }
  }
  /// read()/write() of an access the caller has already found to lie in
  /// DRAM (is_dram(pa, size)), so the test is not repeated.
  u64 read_dram(PhysAddr pa, unsigned size) {
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    assert(is_dram(pa, size));
    const u64 off = (pa - dram_base_) & kPageMask;
    if (off + size <= kPageSize) {
      // Reads never materialize frames: untouched memory is zero.
      const Frame* f = find_frame(pa);
      if (f == nullptr) return 0;
      return load_le(f->data + off, size);
    }
    return read_slow(pa, size);
  }
  void write_dram(PhysAddr pa, unsigned size, u64 value) {
    assert(size == 1 || size == 2 || size == 4 || size == 8);
    assert(is_dram(pa, size));
    const u64 off = (pa - dram_base_) & kPageMask;
    if (off + size <= kPageSize) {
      const bool zero = (value & mask_lo(8 * size)) == 0;
      if (u8* data = written_bytes(pa, off, size, zero)) {
        store_le(data + off, size, value);
      }
      return;
    }
    write_slow(pa, size, value);
  }

  /// Bulk helpers for loaders and the kernel model. A write_block skips
  /// each untouched frame whose part of `in` is all zero.
  void read_block(PhysAddr pa, void* out, u64 len);
  void write_block(PhysAddr pa, const void* in, u64 len);
  /// Sets [pa, pa+len) to `byte`. A zero fill skips unmaterialized frames
  /// (no write_gen, no snapshot entry) and clears only the part of a
  /// materialized frame's dirty extent it covers; every materialized frame
  /// it touches gets one write_gen bump.
  void fill(PhysAddr pa, u8 byte, u64 len);

  /// True if every byte of [pa, pa+len) is zero. Used by the PTStore kernel's
  /// zero-check defence against allocator-metadata attacks (paper §V-E3).
  /// Only the bytes inside a frame's dirty extent are scanned; untouched
  /// frames and frames whose extent is empty answer without a scan.
  bool is_zero(PhysAddr pa, u64 len);

  /// Number of DRAM frames materialized so far (for memory-pressure stats).
  size_t resident_frames() const { return resident_; }

  /// Pointer to the write-generation counter of the frame containing `pa`,
  /// or nullptr if the address is not DRAM or the frame is unmaterialized
  /// (never written with a nonzero byte). The counter is bumped on every
  /// write into the frame, letting consumers (the decode cache) detect
  /// content changes without snooping individual stores. The pointer stays
  /// valid until restore_frames() rebuilds the table — watch
  /// frame_table_gen() for that.
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
  /// hands all current frames' pages back to the pool and writes each
  /// restored page once, with the whole page as its extent.
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
  // Test access to frame data pages, extents and materialize().
  friend struct PhysMemProbe;

  struct Window {
    PhysAddr base;
    u64 size;
    MmioDevice* dev;
  };

  /// One frame-table slot: a frame's header beside its data page (null
  /// while the frame is unmaterialized).
  struct Frame {
    u8* data = nullptr;
    u64 write_gen = 0;
    /// Dirty extent: every byte outside [lo, hi) is zero (lo == hi: the
    /// whole frame is). Writes widen it; zero fills and is_zero() scans
    /// that find zeros at its ends shrink it.
    u32 lo = 0;
    u32 hi = 0;

    /// Bytes [off, end) are about to be written: one write_gen bump, and
    /// the extent grows to cover them.
    void touch(u64 off, u64 end) {
      ++write_gen;
      if (lo == hi) {
        lo = static_cast<u32>(off);
        hi = static_cast<u32>(end);
      } else {
        lo = std::min(lo, static_cast<u32>(off));
        hi = std::max(hi, static_cast<u32>(end));
      }
    }
  };

  // Frame table: dir_[frame >> kLeafShift] points at a leaf of kLeafFrames
  // frame slots (one 512 KiB span of DRAM), allocated with its first frame.
  // (A flat table answers one load sooner, but a calloc'd one costs page
  // faults or a clear on every machine built, and machines are built often.)
  static constexpr unsigned kLeafShift = 7;
  static constexpr u64 kLeafFrames = u64{1} << kLeafShift;
  using Leaf = std::array<Frame, kLeafFrames>;

  // Fixed-size copies, one per access size, so the compiler emits plain
  // loads and stores instead of a memcpy call with a run-time length.
  static u64 load_le(const u8* p, unsigned size) {
    switch (size) {
      case 1: return *p;
      case 2: { u16 v; std::memcpy(&v, p, 2); return v; }
      case 4: { u32 v; std::memcpy(&v, p, 4); return v; }
      default: { u64 v; std::memcpy(&v, p, 8); return v; }
    }
  }
  static void store_le(u8* p, unsigned size, u64 value) {
    switch (size) {
      case 1: *p = static_cast<u8>(value); break;
      case 2: { const u16 v = static_cast<u16>(value); std::memcpy(p, &v, 2); break; }
      case 4: { const u32 v = static_cast<u32>(value); std::memcpy(p, &v, 4); break; }
      default: std::memcpy(p, &value, 8); break;
    }
  }
  /// The materialized frame holding DRAM address `pa`, or nullptr.
  Frame* find_frame(PhysAddr pa) const {
    const u64 frame = (pa - dram_base_) >> kPageShift;
    Leaf* leaf = dir_[frame >> kLeafShift].get();
    if (leaf == nullptr) return nullptr;
    Frame& f = (*leaf)[frame & (kLeafFrames - 1)];
    return f.data == nullptr ? nullptr : &f;
  }
  /// Data of the frame holding DRAM address `pa` about to receive bytes
  /// [off, off+len) of the frame: touches the frame, materializing it
  /// first unless the bytes are all `zero`. Null when the write is a no-op
  /// (zeros into an untouched frame).
  u8* written_bytes(PhysAddr pa, u64 off, u64 len, bool zero) {
    Frame* f = find_frame(pa);
    if (f == nullptr) {
      if (zero) return nullptr;
      f = materialize((pa - dram_base_) >> kPageShift);
    }
    f->touch(off, off + len);
    return f->data;
  }
  /// Gives `frame` a page from the pool: a copy of the kPageSize bytes at
  /// `src` (extent: the whole page), or all zero (empty extent) if null.
  Frame* materialize(u64 frame, const u8* src = nullptr);
  /// Zeroes each materialized frame's extent and hands its page back to
  /// the pool; every slot becomes unmaterialized (leaves are kept).
  void release_frames();
  /// Calls fn(frame number, frame) for every materialized frame, ascending.
  template <typename Fn>
  void for_each_frame(Fn&& fn) const {
    for (u64 d = 0; d < dir_.size(); ++d) {
      if (!dir_[d]) continue;
      for (u64 i = 0; i < kLeafFrames; ++i) {
        const Frame& f = (*dir_[d])[i];
        if (f.data != nullptr) fn((d << kLeafShift) | i, f);
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
