#include "mem/phys_mem.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.h"

namespace ptstore {
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
  // Every write op bumps each frame it touches once.
  auto write_shadow = [&](u64 off, u64 len, auto byte_at) {
    for (u64 i = 0; i < len; ++i) {
      const u64 frame = (off + i) >> kPageShift;
      std::vector<u8>& bytes = shadow[frame];
      if (bytes.empty()) bytes.assign(kPageSize, 0);
      if (i == 0 || ((off + i) & kPageMask) == 0) ++gens[frame];
      bytes[(off + i) & kPageMask] = byte_at(i);
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

}  // namespace
}  // namespace ptstore
