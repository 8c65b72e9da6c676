// Seeded input generators for the host-speed benchmark. Everything a
// workload feeds the simulator comes from here, as a pure function of the
// seed: the guest programs of guest_compute (with a host-side reference for
// their exit checksum and dynamic instruction count) and the kernel-op
// stream of kernel_churn (with the result each op must return). Each input
// draws from its own ptstore::Rng, seeded with harness::shard_seed(seed, n).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace perfbench {

using ptstore::u32;
using ptstore::u64;
using ptstore::u8;
using ptstore::VirtAddr;

// ---------------------------------------------------------------------------
// guest_compute: RV64 U-mode programs.

/// Knobs of one generated program. Sizes are fixed per program slot so that
/// every seed does the same amount of work; the seed picks values only.
struct GuestParams {
  u64 footprint_bytes = 0;  ///< Data array size (a power of two).
  u64 iterations = 0;       ///< Compute-loop trip count.
  u64 x0 = 0;               ///< LCG start value.
  u64 mul = 0;              ///< LCG multiplier (odd).
  u64 inc = 0;              ///< LCG increment (odd).
  unsigned idx_shift = 0;   ///< State bits that pick the array index.
  unsigned branch_bit = 0;  ///< Loaded-value bit that picks the branch path.
};

struct GuestProgram {
  GuestParams params;
  std::vector<u32> code;
  u64 expected_exit = 0;   ///< Checksum the program passes to exit().
  u64 expected_insts = 0;  ///< Dynamic instruction count, exit ecall included.
};

/// Number of programs guest_compute runs; slots 0-1 fit in L1D and DTLB
/// reach, slots 2-3 are 1 MiB and 2 MiB.
inline constexpr unsigned kGuestPrograms = 4;

GuestParams guest_params(u64 seed, unsigned slot);

/// Assemble `p` at `entry` (data array at `data_base`) and compute the
/// host reference for its exit value and instruction count.
GuestProgram build_guest_program(const GuestParams& p, VirtAddr entry,
                                 VirtAddr data_base);

// ---------------------------------------------------------------------------
// kernel_churn: one op stream, replayed on every backend.

struct ChurnOp {
  enum class Kind : u8 {
    kFork = 0,    ///< fork(slot) -> new process in `child`.
    kExit,        ///< exit(slot); never the running process.
    kSwitch,      ///< switch_to(slot) on `hart`.
    kSyscall,     ///< Kernel::syscall(slot, sys) for the running process.
    kMmap,        ///< add_vma(slot, va, len, RW) of a fresh region.
    kMunmap,      ///< remove_vma(slot, va, len) of the region before it.
    kFaultWrite,  ///< user_access(write) to an unmapped page: must fault.
    kReadMapped,  ///< user_access(read) of a present page: must not fault.
  };
  Kind kind = Kind::kSwitch;
  u8 hart = 0;     ///< Hart the op runs on in the 2-hart pass.
  u8 sys = 0;      ///< ptstore::Sys for kSyscall.
  u32 slot = 0;    ///< Subject process, by creation order (0 = init).
  u32 child = 0;   ///< New slot for kFork.
  u64 va = 0;      ///< kMmap/kMunmap/kFaultWrite/kReadMapped address.
  u64 len = 0;     ///< kMmap/kMunmap length.
};

inline constexpr unsigned kChurnOpKinds = 8;
const char* to_string(ChurnOp::Kind k);

struct ChurnStream {
  std::vector<ChurnOp> ops;
  u32 slots = 0;         ///< Process slots used, init included.
  size_t peak_op = 0;    ///< Index after which the live population peaks.
  u32 peak_live = 0;     ///< That population, init included.
};

/// About `n_ops` ops in the figure workloads' mix (see gen.cpp), plus the
/// final teardown that exits every process except init.
ChurnStream make_churn_stream(u64 seed, size_t n_ops);

/// Byte image of a stream, for determinism checks.
std::string serialize(const ChurnStream& s);

}  // namespace perfbench
