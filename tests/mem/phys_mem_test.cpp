#include "mem/phys_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/rng.h"

namespace ptstore {

// Reaches into the frame table: the data page, the dirty extent and
// materialize() of one frame.
struct PhysMemProbe {
  static const u8* data(const PhysMem& m, PhysAddr pa) {
    const PhysMem::Frame* f = m.find_frame(pa);
    return f == nullptr ? nullptr : f->data;
  }
  static std::pair<u32, u32> extent(const PhysMem& m, PhysAddr pa) {
    const PhysMem::Frame* f = m.find_frame(pa);
    return f == nullptr ? std::make_pair(0u, 0u) : std::make_pair(f->lo, f->hi);
  }
  static const u8* materialize(PhysMem& m, PhysAddr pa) {
    return m.materialize((pa - m.dram_base()) >> kPageShift)->data;
  }
};

namespace {

class PhysMemTest : public ::testing::Test {
 protected:
  PhysMem mem_{kDramBase, MiB(64)};
};

TEST_F(PhysMemTest, Bounds) {
  EXPECT_TRUE(mem_.is_dram(kDramBase));
  EXPECT_TRUE(mem_.is_dram(mem_.dram_end() - 1));
  EXPECT_FALSE(mem_.is_dram(mem_.dram_end()));
  EXPECT_FALSE(mem_.is_dram(kDramBase - 1));
  EXPECT_FALSE(mem_.is_dram(mem_.dram_end() - 4, 8));  // Straddles the end.
}

TEST_F(PhysMemTest, ZeroInitialized) {
  EXPECT_EQ(mem_.read_u64(kDramBase + 0x1234 * 8), 0u);
  EXPECT_TRUE(mem_.is_zero(kDramBase, MiB(1)));
  EXPECT_EQ(mem_.resident_frames(), 0u);  // is_zero materializes nothing.
}

TEST_F(PhysMemTest, ReadWriteWidths) {
  const PhysAddr a = kDramBase + 0x1000;
  mem_.write_u8(a, 0xAB);
  EXPECT_EQ(mem_.read_u8(a), 0xAB);
  mem_.write_u16(a + 2, 0xBEEF);
  EXPECT_EQ(mem_.read_u16(a + 2), 0xBEEF);
  mem_.write_u32(a + 4, 0xDEADBEEF);
  EXPECT_EQ(mem_.read_u32(a + 4), 0xDEADBEEFu);
  mem_.write_u64(a + 8, 0x0123456789ABCDEF);
  EXPECT_EQ(mem_.read_u64(a + 8), 0x0123456789ABCDEFu);
}

// The in-frame path copies each access size with its own fixed-size load or
// store: every size round-trips at both edges of a frame, keeps its
// neighbours intact, and reads back byte by byte in little-endian order.
TEST_F(PhysMemTest, EachSizeRoundTripsAtBothFrameEdges) {
  const PhysAddr frame = kDramBase + 5 * kPageSize;
  for (const unsigned size : {1u, 2u, 4u, 8u}) {
    for (const PhysAddr pa : {frame, frame + kPageSize - size}) {
      const u64 value = 0x8877665544332211ull & mask_lo(8 * size);
      mem_.fill(frame - 8, 0xEE, kPageSize + 16);
      mem_.write(pa, size, value | ~mask_lo(8 * size));  // Bits above size drop.
      EXPECT_EQ(mem_.read(pa, size), value)
          << "size " << size << " at 0x" << std::hex << pa;
      for (unsigned i = 0; i < size; ++i) {
        EXPECT_EQ(mem_.read_u8(pa + i), static_cast<u8>(value >> (8 * i)));
      }
      EXPECT_EQ(mem_.read_u8(pa - 1), 0xEE);
      EXPECT_EQ(mem_.read_u8(pa + size), 0xEE);
    }
  }
}

TEST_F(PhysMemTest, LittleEndianComposition) {
  const PhysAddr a = kDramBase + 0x2000;
  mem_.write_u64(a, 0x0807060504030201);
  EXPECT_EQ(mem_.read_u8(a), 0x01);
  EXPECT_EQ(mem_.read_u8(a + 7), 0x08);
  EXPECT_EQ(mem_.read_u32(a + 4), 0x08070605u);
}

TEST_F(PhysMemTest, CrossFrameBlockOps) {
  const PhysAddr a = kDramBase + kPageSize - 5;  // Straddles a frame border.
  u8 in[16], out[16] = {};
  for (int i = 0; i < 16; ++i) in[i] = static_cast<u8>(0xC0 + i);
  mem_.write_block(a, in, sizeof(in));
  mem_.read_block(a, out, sizeof(out));
  EXPECT_EQ(0, std::memcmp(in, out, sizeof(in)));
}

TEST_F(PhysMemTest, CrossFrameScalar) {
  const PhysAddr a = kDramBase + kPageSize - 4;
  mem_.write_u64(a, 0x1122334455667788);
  EXPECT_EQ(mem_.read_u64(a), 0x1122334455667788u);
}

TEST_F(PhysMemTest, FillAndIsZero) {
  const PhysAddr a = kDramBase + kPageSize;
  mem_.fill(a, 0x5A, kPageSize);
  EXPECT_FALSE(mem_.is_zero(a, kPageSize));
  EXPECT_EQ(mem_.read_u8(a + 100), 0x5A);
  mem_.fill(a, 0, kPageSize);
  EXPECT_TRUE(mem_.is_zero(a, kPageSize));
  // One stray byte defeats is_zero.
  mem_.write_u8(a + kPageSize - 1, 1);
  EXPECT_FALSE(mem_.is_zero(a, kPageSize));
}

// A zero fill never materializes a frame: untouched memory already reads
// as zero, so it gets no allocation, no write generation and no snapshot
// entry. A materialized frame in the span is still written and bumped once.
TEST_F(PhysMemTest, ZeroFillLeavesUntouchedFramesUnmaterialized) {
  const PhysAddr a = kDramBase + 10 * kPageSize;
  mem_.fill(a, 0, 4 * kPageSize);
  mem_.fill(a + 5 * kPageSize + 100, 0, 200);  // Partial, also untouched.
  EXPECT_EQ(mem_.resident_frames(), 0u);
  for (u64 i = 0; i < 6; ++i) {
    EXPECT_EQ(mem_.frame_write_gen(a + i * kPageSize), nullptr);
  }
  EXPECT_TRUE(mem_.snapshot_frames().empty());
  EXPECT_TRUE(mem_.is_zero(a, 6 * kPageSize));

  // Straddle a materialized frame (a, holding data) and an untouched one.
  mem_.write_u64(a + kPageSize - 8, 0x1234);
  ASSERT_EQ(mem_.resident_frames(), 1u);
  const u64* gen = mem_.frame_write_gen(a);
  ASSERT_NE(gen, nullptr);
  const u64 g0 = *gen;
  mem_.fill(a + kPageSize - 16, 0, 32);
  EXPECT_EQ(mem_.resident_frames(), 1u);
  EXPECT_EQ(*gen, g0 + 1);
  EXPECT_EQ(mem_.frame_write_gen(a + kPageSize), nullptr);
  EXPECT_EQ(mem_.read_u64(a + kPageSize - 8), 0u);
  EXPECT_TRUE(mem_.is_zero(a, 2 * kPageSize));
  const auto frames = mem_.snapshot_frames();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].first, 10u);
}

// Every all-zero write is a no-op on an untouched frame: scalar stores of
// any width (bytes above `size` do not count), block writes and fills, also
// across frame borders. A frame that holds data still takes zero stores as
// writes.
TEST_F(PhysMemTest, ZeroStoresLeaveUntouchedFramesUnmaterialized) {
  const PhysAddr a = kDramBase + 20 * kPageSize;
  mem_.write_u8(a + 1, 0);
  mem_.write_u16(a + 2, 0);
  mem_.write_u32(a + 4, 0);
  mem_.write_u64(a + 8, 0);
  mem_.write(a + 16, 4, 0xFFFF'FFFF'0000'0000ULL);  // Only the low 4 bytes land.
  mem_.write_u64(a + kPageSize - 4, 0);              // Crosses into frame 21.
  const std::vector<u8> zeros(3 * kPageSize, 0);
  mem_.write_block(a + 100, zeros.data(), zeros.size());
  EXPECT_EQ(mem_.resident_frames(), 0u);
  for (u64 i = 0; i < 4; ++i) EXPECT_EQ(mem_.frame_write_gen(a + i * kPageSize), nullptr);
  EXPECT_TRUE(mem_.snapshot_frames().empty());

  // A block write materializes only the frames its nonzero bytes land in.
  std::vector<u8> in(2 * kPageSize, 0);
  in[kPageSize + 5] = 0x42;
  mem_.write_block(a, in.data(), in.size());
  EXPECT_EQ(mem_.resident_frames(), 1u);
  EXPECT_EQ(mem_.frame_write_gen(a), nullptr);
  ASSERT_NE(mem_.frame_write_gen(a + kPageSize), nullptr);
  EXPECT_EQ(mem_.read_u8(a + kPageSize + 5), 0x42);

  const u64 g0 = *mem_.frame_write_gen(a + kPageSize);
  mem_.write_u64(a + kPageSize, 0);
  EXPECT_EQ(*mem_.frame_write_gen(a + kPageSize), g0 + 1);
  mem_.write_u8(a + kPageSize + 5, 0);
  EXPECT_EQ(*mem_.frame_write_gen(a + kPageSize), g0 + 2);
  EXPECT_TRUE(mem_.is_zero(a, 2 * kPageSize));
}

// The dirty extent bounds what zero fills clear and what is_zero scans; it
// must never hide a nonzero byte. Small writes and fills inside two frames
// move its ends around; contents and is_zero of random sub-spans are
// checked against a byte shadow after every op.
TEST_F(PhysMemTest, DirtyExtentNeverHidesData) {
  constexpr u64 kSpan = 2 * kPageSize;
  const PhysAddr base = kDramBase + 30 * kPageSize;
  std::vector<u8> shadow(kSpan, 0);
  Rng rng(7);
  // Offsets cluster near a few anchors (frame starts, ends and middles), so
  // ops often begin or end a few bytes from the extent's ends.
  const u64 anchors[] = {0, 40, kPageSize / 2, kPageSize - 48, kPageSize, kPageSize + 8,
                         kSpan - 64};
  for (int step = 0; step < 6000; ++step) {
    const u64 off = rng.chance(0.3)
                        ? rng.next_below(kSpan)
                        : std::min(kSpan - 1, anchors[rng.next_below(7)] + rng.next_below(24));
    const u64 len = std::min<u64>(kSpan - off, 1 + rng.next_below(rng.chance(0.2) ? kSpan : 40));
    switch (rng.next_below(4)) {
      case 0: {  // Scalar write, zero a third of the time.
        const unsigned size = 1u << rng.next_below(4);
        if (off + size > kSpan) break;
        const u64 v = rng.chance(0.3) ? 0 : rng.next_u64();
        mem_.write(base + off, size, v);
        for (unsigned i = 0; i < size; ++i) shadow[off + i] = static_cast<u8>(v >> (8 * i));
        break;
      }
      case 1: {  // Fill, mostly zero; sometimes whole frames.
        const u8 byte = rng.chance(0.7) ? 0 : static_cast<u8>(1 + rng.next_below(255));
        const u64 o = rng.chance(0.2) ? align_down(off, kPageSize) : off;
        const u64 n = o == off ? len : kPageSize;
        mem_.fill(base + o, byte, n);
        std::fill(shadow.begin() + static_cast<std::ptrdiff_t>(o),
                  shadow.begin() + static_cast<std::ptrdiff_t>(o + n), byte);
        break;
      }
      default: {  // is_zero of a sub-span and a full read-back.
        bool want = true;
        for (u64 i = off; i < off + len; ++i) want = want && shadow[i] == 0;
        ASSERT_EQ(mem_.is_zero(base + off, len), want) << step;
        std::vector<u8> out(kSpan);
        mem_.read_block(base, out.data(), kSpan);
        ASSERT_EQ(out, shadow) << step;
        break;
      }
    }
  }
}

TEST_F(PhysMemTest, SparseResidency) {
  mem_.write_u8(kDramBase, 1);
  mem_.write_u8(kDramBase + MiB(32), 1);
  EXPECT_EQ(mem_.resident_frames(), 2u);
}

class CountingDevice : public MmioDevice {
 public:
  u64 mmio_read(u64 offset, unsigned size) override {
    ++reads;
    return offset + size;
  }
  void mmio_write(u64 offset, unsigned size, u64 value) override {
    ++writes;
    last = value;
    (void)offset;
    (void)size;
  }
  int reads = 0, writes = 0;
  u64 last = 0;
};

TEST_F(PhysMemTest, MmioDispatch) {
  CountingDevice dev;
  ASSERT_TRUE(mem_.map_device(0x1000'0000, 0x1000, &dev));
  EXPECT_TRUE(mem_.is_mmio(0x1000'0000));
  EXPECT_TRUE(mem_.is_valid(0x1000'0FF8, 8));
  EXPECT_FALSE(mem_.is_valid(0x1000'1000));

  EXPECT_EQ(mem_.read(0x1000'0010, 4), 0x14u);
  mem_.write(0x1000'0020, 8, 0x77);
  EXPECT_EQ(dev.reads, 1);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(dev.last, 0x77u);
}

TEST_F(PhysMemTest, MmioOverlapRejected) {
  CountingDevice dev;
  EXPECT_FALSE(mem_.map_device(kDramBase, 0x1000, &dev));  // Overlaps DRAM.
  ASSERT_TRUE(mem_.map_device(0x2000'0000, 0x1000, &dev));
  EXPECT_FALSE(mem_.map_device(0x2000'0800, 0x1000, &dev));  // Overlaps device.
  EXPECT_FALSE(mem_.map_device(0x3000'0000, 0, &dev));       // Empty window.
}

// A restore frees every frame; accesses afterwards must see only the
// restored image, never a frame freed with the old table.
TEST_F(PhysMemTest, AccessAfterRestoreFramesSeesRestoredImage) {
  const PhysAddr a = kDramBase + 3 * kPageSize + 16;
  const PhysAddr b = kDramBase + 7 * kPageSize;
  mem_.write_u64(a, 0x1111);
  const auto frames = mem_.snapshot_frames();  // Frame 3 only.
  mem_.write_u64(a, 0x2222);
  mem_.write_u64(b, 0x7777);  // The memo now holds frame 7.
  mem_.restore_frames(frames);
  // Frame 7 is gone, so this write materializes it afresh.
  mem_.write_u64(b + 8, 0x8888);
  EXPECT_EQ(mem_.resident_frames(), 2u);
  EXPECT_EQ(mem_.read_u64(b), 0u);
  EXPECT_EQ(mem_.read_u64(b + 8), 0x8888u);
  EXPECT_EQ(mem_.read_u64(a), 0x1111u);
  // Restoring an empty image drops every frame; reads see zero again.
  mem_.restore_frames({});
  EXPECT_EQ(mem_.read_u64(a), 0u);
  EXPECT_EQ(mem_.resident_frames(), 0u);
}

TEST_F(PhysMemTest, EveryWriteBumpsFrameWriteGen) {
  const PhysAddr a = kDramBase + 5 * kPageSize;
  mem_.write_u32(a, 1);
  const u64* gen = mem_.frame_write_gen(a);
  ASSERT_NE(gen, nullptr);
  const u64 g0 = *gen;
  // Repeat writes to the memoized frame, scalar and bulk.
  mem_.write_u32(a + 4, 2);
  EXPECT_EQ(*gen, g0 + 1);
  mem_.write_u8(a + 100, 3);
  EXPECT_EQ(*gen, g0 + 2);
  mem_.fill(a + 200, 0xEE, 8);
  EXPECT_EQ(*gen, g0 + 3);
  // Reads leave it alone.
  EXPECT_EQ(mem_.read_u32(a + 4), 2u);
  EXPECT_EQ(*gen, g0 + 3);
  // A write elsewhere moves the memo; coming back still bumps.
  mem_.write_u64(kDramBase + 9 * kPageSize, 4);
  mem_.write_u64(a + 8, 5);
  EXPECT_EQ(*gen, g0 + 4);
}

TEST_F(PhysMemTest, MemoKeepsMmioAndFrameCrossingRoutes) {
  CountingDevice dev;
  ASSERT_TRUE(mem_.map_device(0x1000'0000, kPageSize, &dev));
  const PhysAddr a = kDramBase + 2 * kPageSize - 4;  // Last word of frame 1.
  mem_.write_u32(a, 0xAABBCCDD);  // Memo: frame 1.
  EXPECT_EQ(mem_.read(0x1000'0008, 8), 0x10u);
  mem_.write(0x1000'0010, 4, 0x99);
  EXPECT_EQ(dev.reads, 1);
  EXPECT_EQ(dev.writes, 1);
  EXPECT_EQ(dev.last, 0x99u);
  // A crossing write lands half in frame 1 and half in frame 2, and bumps
  // both frames' generations.
  const u64 g1 = *mem_.frame_write_gen(a);
  mem_.write_u64(a + 2, 0x8877665544332211);
  EXPECT_EQ(*mem_.frame_write_gen(a), g1 + 1);
  ASSERT_NE(mem_.frame_write_gen(a + 4), nullptr);
  EXPECT_EQ(mem_.read_u16(a), 0xCCDDu);
  EXPECT_EQ(mem_.read_u16(a + 2), 0x2211u);
  EXPECT_EQ(mem_.read_u32(a + 4), 0x66554433u);
  EXPECT_EQ(mem_.read_u64(a + 2), 0x8877665544332211u);
  EXPECT_EQ(dev.reads, 1);
  EXPECT_EQ(dev.writes, 1);
}

// content_digest() recomputed from a byte shadow (frame -> bytes): FNV-1a
// over each frame that is not all zero, ascending, index then bytes.
u64 shadow_digest(const std::map<u64, std::vector<u8>>& shadow) {
  u64 h = 0xcbf29ce484222325ULL;
  auto mix = [&h](u8 b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (const auto& [frame, bytes] : shadow) {
    if (std::all_of(bytes.begin(), bytes.end(), [](u8 b) { return b == 0; })) continue;
    for (unsigned i = 0; i < 8; ++i) mix(static_cast<u8>(frame >> (8 * i)));
    for (const u8 b : bytes) mix(b);
  }
  return h;
}

TEST_F(PhysMemTest, RandomizedReadbackProperty) {
  Rng rng(123);
  std::vector<std::pair<PhysAddr, u64>> writes;
  for (int i = 0; i < 500; ++i) {
    const PhysAddr a = kDramBase + align_down(rng.next_below(MiB(64) - 8), 8);
    const u64 v = rng.next_u64();
    mem_.write_u64(a, v);
    writes.emplace_back(a, v);
  }
  // Later writes win; verify final state from a replay map.
  std::map<PhysAddr, u64> final;
  for (const auto& [a, v] : writes) final[a] = v;
  for (const auto& [a, v] : final) EXPECT_EQ(mem_.read_u64(a), v);

  // Second mix over a 16-frame window, so ops collide: whole-frame and
  // partial fills (zero and not), scalar writes and write_block across
  // frames, snapshot/restore, and reads of unmaterialized frames, against
  // a byte shadow. Checks contents, is_zero (against a byte scan of the
  // shadow), resident_frames, content_digest and every frame_write_gen.
  constexpr u64 kWindowFrames = 16;
  constexpr u64 kWindow = kWindowFrames * kPageSize;
  PhysMem mem(kDramBase, MiB(4));
  std::map<u64, std::vector<u8>> shadow;  // Materialized frame -> bytes.
  std::map<u64, u64> gens;                // Materialized frame -> write_gen.
  // Every write op bumps each frame it touches once, except that storing
  // only zeros into a frame the shadow has no entry for is a no-op: the
  // frame already reads as zero, so no op (fill, write_block or scalar
  // write) materializes it or bumps a generation.
  auto write_shadow = [&](u64 off, u64 len, auto byte_at) {
    for (u64 i = 0, next = 0; i < len; i = next) {
      const u64 frame = (off + i) >> kPageShift;
      next = std::min(len, ((frame + 1) << kPageShift) - off);
      bool zero = true;
      for (u64 j = i; j < next; ++j) zero = zero && byte_at(j) == 0;
      if (zero && shadow.count(frame) == 0) continue;
      std::vector<u8>& bytes = shadow[frame];
      if (bytes.empty()) bytes.assign(kPageSize, 0);
      ++gens[frame];
      for (u64 j = i; j < next; ++j) bytes[(off + j) & kPageMask] = byte_at(j);
    }
  };
  auto shadow_byte = [&](u64 off) -> u8 {
    const auto it = shadow.find(off >> kPageShift);
    return it == shadow.end() ? 0 : it->second[off & kPageMask];
  };
  auto random_span = [&rng]() {
    const u64 off = rng.next_below(kWindow);
    u64 len = rng.chance(0.5) ? 1 + rng.next_below(64) : 1 + rng.next_below(3 * kPageSize);
    if (rng.chance(0.3)) {  // Whole frames.
      return std::make_pair(align_down(off, kPageSize), kPageSize * (1 + rng.next_below(3)));
    }
    return std::make_pair(off, len);
  };
  std::vector<std::pair<u64, std::vector<u8>>> snap;
  std::map<u64, std::vector<u8>> snap_shadow;
  for (int step = 0; step < 3000; ++step) {
    auto [off, len] = random_span();
    len = std::min(len, kWindow - off);
    const PhysAddr pa = kDramBase + off;
    switch (rng.next_below(9)) {
      case 0:
      case 1: {  // fill, zero half the time.
        const u8 byte = rng.chance(0.5) ? 0 : static_cast<u8>(1 + rng.next_below(255));
        mem.fill(pa, byte, len);
        write_shadow(off, len, [byte](u64) { return byte; });
        break;
      }
      case 2: {  // write_block, possibly across frames.
        std::vector<u8> in(len);
        for (u8& b : in) b = rng.chance(0.7) ? 0 : static_cast<u8>(rng.next_u64());
        mem.write_block(pa, in.data(), len);
        write_shadow(off, len, [&in](u64 i) { return in[i]; });
        break;
      }
      case 3: {  // Scalar write, possibly crossing a frame.
        const unsigned size = 1u << rng.next_below(4);
        if (off + size > kWindow) break;
        const u64 v = rng.chance(0.3) ? 0 : rng.next_u64();
        mem.write(pa, size, v);
        write_shadow(off, size, [v](u64 i) { return static_cast<u8>(v >> (8 * i)); });
        break;
      }
      case 4:  // Snapshot now, or restore the last snapshot.
        if (snap.empty() || rng.chance(0.5)) {
          snap = mem.snapshot_frames();
          snap_shadow = shadow;
        } else {
          mem.restore_frames(snap);
          shadow = snap_shadow;
          gens.clear();
          for (const auto& [frame, bytes] : shadow) gens[frame] = 0;
        }
        break;
      case 5: {  // Reads, materialized or not.
        std::vector<u8> out(len);
        mem.read_block(pa, out.data(), len);
        for (u64 i = 0; i < len; ++i) ASSERT_EQ(out[i], shadow_byte(off + i)) << step;
        if (off + 8 <= kWindow) {
          u64 want = 0;
          for (unsigned i = 0; i < 8; ++i) want |= u64{shadow_byte(off + i)} << (8 * i);
          ASSERT_EQ(mem.read_u64(pa), want) << step;
        }
        break;
      }
      default: {  // is_zero over the span, then over its whole frames.
        bool want = true;
        for (u64 i = 0; i < len; ++i) want = want && shadow_byte(off + i) == 0;
        ASSERT_EQ(mem.is_zero(pa, len), want) << step;
        const u64 lo = align_down(off, kPageSize);
        const u64 hi = std::min(align_up(off + len, kPageSize), kWindow);
        bool whole = true;
        for (u64 o = lo; o < hi; ++o) whole = whole && shadow_byte(o) == 0;
        ASSERT_EQ(mem.is_zero(kDramBase + lo, hi - lo), whole) << step;
        break;
      }
    }
    ASSERT_EQ(mem.resident_frames(), shadow.size()) << step;
    for (u64 frame = 0; frame < kWindowFrames; ++frame) {
      const u64* gen = mem.frame_write_gen(kDramBase + frame * kPageSize);
      const auto it = gens.find(frame);
      if (it == gens.end()) {
        ASSERT_EQ(gen, nullptr) << step;
      } else {
        ASSERT_NE(gen, nullptr) << step;
        ASSERT_EQ(*gen, it->second) << step;
      }
    }
    if (step % 16 == 0) {
      ASSERT_EQ(mem.content_digest(), shadow_digest(shadow)) << step;
    }
  }
  EXPECT_EQ(mem.content_digest(), shadow_digest(shadow));
}

// Writes a different nonzero pattern over each of `n` frames from `base`:
// whole-frame fills, scattered words and a partial fill, so the frames'
// extents differ.
void dirty_frames(PhysMem& m, PhysAddr base, u64 n, u8 seed) {
  for (u64 i = 0; i < n; ++i) {
    const PhysAddr f = base + i * kPageSize;
    switch (i % 3) {
      case 0: m.fill(f, static_cast<u8>(seed + i), kPageSize); break;
      case 1: m.write_u64(f + 8 * (i % 500), 0x0101'0101'0101'0101ULL * (seed | 1)); break;
      default: m.fill(f + 100, static_cast<u8>(seed ^ 0x5A), 1000); break;
    }
  }
}

// A page that a destroyed PhysMem gave back to the pool and a new one took
// again reads zero everywhere, has an empty extent and passes is_zero.
TEST(PhysMemPool, PageReleasedByDestroyedMemoryComesBackZero) {
  constexpr u64 kFrames = 24;
  const PhysAddr base = kDramBase + 64 * kPageSize;
  std::set<const u8*> released;
  {
    PhysMem old(kDramBase, MiB(4));
    dirty_frames(old, base, kFrames, 0x31);
    for (u64 i = 0; i < kFrames; ++i) {
      released.insert(PhysMemProbe::data(old, base + i * kPageSize));
    }
  }
  // The pool hands out the pages given back last first.
  PhysMem fresh(kDramBase, MiB(4));
  const std::vector<u8> zeros(kPageSize, 0);
  for (u64 i = 0; i < kFrames; ++i) {
    const PhysAddr f = base + (kFrames - 1 - i) * kPageSize;
    const u8* page = PhysMemProbe::materialize(fresh, f);
    EXPECT_EQ(released.count(page), 1u) << i;
    EXPECT_EQ(std::memcmp(page, zeros.data(), kPageSize), 0) << i;
    std::vector<u8> out(kPageSize, 0xFF);
    fresh.read_block(f, out.data(), kPageSize);
    EXPECT_EQ(out, zeros) << i;
    const auto [lo, hi] = PhysMemProbe::extent(fresh, f);
    EXPECT_EQ(lo, hi) << i;
    EXPECT_TRUE(fresh.is_zero(f, kPageSize)) << i;
  }
  EXPECT_EQ(fresh.resident_frames(), kFrames);
  EXPECT_EQ(fresh.content_digest(), PhysMem(kDramBase, MiB(4)).content_digest());
}

// restore_frames() gives the machine's pages back and takes them again for
// the image: each reused page holds exactly the restored bytes, frames
// outside the image read zero, and the digest is that of a machine built
// fresh from the same image.
TEST(PhysMemPool, RestoredPagesHoldExactlyTheImage) {
  const PhysAddr base = kDramBase + 8 * kPageSize;
  PhysMem src(kDramBase, MiB(4));
  dirty_frames(src, base, 9, 0x77);
  src.write_u64(kDramBase + MiB(3), 0xFEED);  // A frame in another leaf.
  const auto image = src.snapshot_frames();
  ASSERT_EQ(image.size(), 10u);

  PhysMem m(kDramBase, MiB(4));
  dirty_frames(m, base, 30, 0xC3);  // More frames than the image, other bytes.
  std::set<const u8*> old_pages;
  for (u64 i = 0; i < 30; ++i) old_pages.insert(PhysMemProbe::data(m, base + i * kPageSize));
  m.restore_frames(image);
  EXPECT_EQ(m.resident_frames(), image.size());
  u64 reused = 0;
  for (const auto& [frame, bytes] : image) {
    const PhysAddr pa = kDramBase + frame * kPageSize;
    reused += old_pages.count(PhysMemProbe::data(m, pa));
    std::vector<u8> out(kPageSize);
    m.read_block(pa, out.data(), kPageSize);
    EXPECT_EQ(out, bytes) << frame;
  }
  EXPECT_GT(reused, 0u);
  EXPECT_TRUE(m.is_zero(base + 9 * kPageSize, 21 * kPageSize));

  PhysMem built(kDramBase, MiB(4));
  built.restore_frames(image);
  EXPECT_EQ(m.content_digest(), built.content_digest());
  EXPECT_EQ(m.content_digest(), src.content_digest());
  EXPECT_EQ(m.snapshot_frames(), image);
  // Frames materialized after the restore start from zeroed pages too.
  m.write_u8(base + 20 * kPageSize + 7, 1);
  std::vector<u8> out(kPageSize);
  m.read_block(base + 20 * kPageSize, out.data(), kPageSize);
  EXPECT_EQ(std::count(out.begin(), out.end(), 0), static_cast<long>(kPageSize - 1));
}

TEST(PhysMemPool, FrameDataIsPageAligned) {
  PhysMem m(kDramBase, MiB(8));
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const PhysAddr pa = kDramBase + align_down(rng.next_below(MiB(8) - 8), 8);
    m.write_u64(pa, rng.next_u64() | 1);
    const u8* page = PhysMemProbe::data(m, pa);
    ASSERT_NE(page, nullptr);
    ASSERT_EQ(reinterpret_cast<uintptr_t>(page) % kPageSize, 0u) << i;
  }
  const auto image = m.snapshot_frames();
  m.restore_frames(image);
  for (const auto& entry : image) {
    const u8* page = PhysMemProbe::data(m, kDramBase + entry.first * kPageSize);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(page) % kPageSize, 0u) << entry.first;
  }
}

// Under AddressSanitizer a page sitting free in the pool is poisoned, so a
// stale data pointer that outlived its machine faults instead of silently
// reading a page the pool may hand to another machine.
TEST(PhysMemPool, FreePagesArePoisonedUnderAsan) {
#if defined(__SANITIZE_ADDRESS__)
  const u8* stale;
  {
    PhysMem m(kDramBase, MiB(4));
    m.write_u8(kDramBase + 5, 1);
    stale = PhysMemProbe::data(m, kDramBase);
  }
  EXPECT_DEATH((void)*static_cast<const volatile u8*>(stale), "use-after-poison");
#else
  GTEST_SKIP() << "needs AddressSanitizer";
#endif
}

// A frame_write_gen() pointer names its frame's counter until
// frame_table_gen() moves: materializing frames in the same and in new
// leaves, fills, zero fills and is_zero leave it in place and counting.
TEST(PhysMemPool, WriteGenPointersStayUntilTableGenMoves) {
  PhysMem m(kDramBase, MiB(8));
  const PhysAddr a = kDramBase + 3 * kPageSize;
  const PhysAddr b = kDramBase + MiB(5) + 40;
  m.write_u32(a, 1);
  m.write_u32(b, 2);
  const u64* ga = m.frame_write_gen(a);
  const u64* gb = m.frame_write_gen(b);
  ASSERT_NE(ga, nullptr);
  ASSERT_NE(gb, nullptr);
  const u64 table = m.frame_table_gen();
  const u64 a0 = *ga;
  Rng rng(17);
  for (int i = 0; i < 400; ++i) {
    const PhysAddr pa = kDramBase + align_down(rng.next_below(MiB(8) - kPageSize), 8);
    switch (i % 4) {
      case 0: m.write_u64(pa, rng.next_u64() | 1); break;
      case 1: m.fill(pa, 0x3C, 64); break;
      case 2: m.fill(pa, 0, kPageSize); break;
      default: (void)m.is_zero(pa, kPageSize); break;
    }
    ASSERT_EQ(m.frame_table_gen(), table);
    ASSERT_EQ(m.frame_write_gen(a), ga) << i;
    ASSERT_EQ(m.frame_write_gen(b), gb) << i;
  }
  const u64 a1 = *ga;
  m.write_u8(a + 9, 7);
  EXPECT_EQ(*ga, a1 + 1);
  EXPECT_GE(a1, a0);
  m.restore_frames(m.snapshot_frames());
  EXPECT_NE(m.frame_table_gen(), table);
}

// Fleet workers build and destroy machines on different threads, so one
// pool serves them all. Four threads each build, fill, check and destroy a
// few machines; half of each thread's machines are destroyed by the next
// thread. Run under ThreadSanitizer in CI.
TEST(PhysMemPool, ThreadsBuildAndDestroyMachinesOnEachOthersPages) {
  constexpr unsigned kThreads = 4;
  constexpr unsigned kMachines = 6;
  constexpr u64 kFrames = 40;
  std::mutex mu;
  std::vector<std::vector<std::unique_ptr<PhysMem>>> handoff(kThreads);
  std::vector<int> failures(kThreads, 0);
  auto worker = [&](unsigned t) {
    for (unsigned i = 0; i < kMachines; ++i) {
      auto m = std::make_unique<PhysMem>(kDramBase, MiB(4));
      const u8 byte = static_cast<u8>(1 + t * kMachines + i);
      for (u64 f = 0; f < kFrames; ++f) {
        const PhysAddr pa = kDramBase + f * 3 * kPageSize;
        if (!m->is_zero(pa, kPageSize)) ++failures[t];
        if (f % 2 == 0) {
          m->fill(pa + 16, byte, kPageSize - 32);
        } else {
          m->write_u64(pa + 8 * f, 0x0101'0101'0101'0101ULL * byte);
        }
      }
      const u64 word = 0x0101'0101'0101'0101ULL * byte;
      for (u64 f = 0; f < kFrames; ++f) {
        const PhysAddr pa = kDramBase + f * 3 * kPageSize;
        if (m->read_u64(pa + (f % 2 == 0 ? 16 : 8 * f)) != word) ++failures[t];
        if (m->read_u64(pa + kPageSize - 8) != 0 || m->read_u8(pa + 1) != 0) ++failures[t];
      }
      if (i % 2 == 0) {
        std::lock_guard<std::mutex> lock(mu);
        handoff[(t + 1) % kThreads].push_back(std::move(m));
      }
      std::vector<std::unique_ptr<PhysMem>> mine;
      {
        std::lock_guard<std::mutex> lock(mu);
        mine.swap(handoff[t]);
      }
      mine.clear();  // Machines another thread built die here.
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (std::thread& th : threads) th.join();
  for (unsigned t = 0; t < kThreads; ++t) EXPECT_EQ(failures[t], 0) << t;
}

}  // namespace
}  // namespace ptstore
