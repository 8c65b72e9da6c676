// Memory-latency ladder (lmbench lat_mem_rd style): a random pointer chase
// over growing working sets, showing the L1 capacity cliff of the modelled
// 16 KiB 4-way D-cache — the memory hierarchy every benchmark figure in
// this repository runs on.
//
//   $ ./examples/mem_lat
#include <cstdio>
#include <numeric>
#include <vector>

#include "common/rng.h"
#include "cpu/core.h"

using namespace ptstore;

int main() {
  PhysMem mem(kDramBase, MiB(64));
  CoreConfig cfg;
  Core core(mem, cfg);
  Rng rng(1234);

  std::printf("%-14s %16s %12s\n", "working set", "cycles/access", "L1 miss %");
  for (const u64 size : {KiB(2), KiB(4), KiB(8), KiB(12), KiB(16), KiB(24),
                         KiB(32), KiB(64), KiB(256), MiB(1)}) {
    // Build a random cyclic permutation of cache-line-spaced slots and
    // store the chain into simulated memory.
    const u64 stride = 64;
    const u64 slots = size / stride;
    std::vector<u64> order(slots);
    std::iota(order.begin(), order.end(), 0);
    for (u64 i = slots - 1; i > 0; --i) {
      std::swap(order[i], order[rng.next_below(i + 1)]);
    }
    const PhysAddr base = kDramBase + MiB(8);
    for (u64 i = 0; i < slots; ++i) {
      mem.write_u64(base + order[i] * stride,
                    base + order[(i + 1) % slots] * stride);
    }

    // Warm once, then chase.
    PhysAddr p = base + order[0] * stride;
    for (u64 i = 0; i < slots; ++i) {
      p = core.access_as(p, 8, AccessType::kRead, AccessKind::kRegular,
                         Privilege::kMachine)
              .value;
    }
    core.clear_stats();
    Cycles cycles = 0;
    const u64 accesses = 4 * slots;
    for (u64 i = 0; i < accesses; ++i) {
      const MemAccessResult r = core.access_as(p, 8, AccessType::kRead,
                                               AccessKind::kRegular,
                                               Privilege::kMachine);
      cycles += r.cycles + 1;  // +1: the load itself.
      p = r.value;
    }
    const StatSet stats = core.merged_stats();
    const u64 hits = stats.get("L1D.hits");
    const u64 miss = stats.get("L1D.misses");
    std::printf("%11llu KB %16.2f %12.1f\n",
                (unsigned long long)(size >> 10),
                static_cast<double>(cycles) / static_cast<double>(accesses),
                100.0 * static_cast<double>(miss) /
                    static_cast<double>(hits + miss));
  }
  std::printf("\nThe cliff beyond 16 KB is the prototype's L1D capacity "
              "(Table II of the paper).\n");
  return 0;
}
