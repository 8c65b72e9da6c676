// Lockstep oracle for the interpreter's block-granular fast path. Three
// machines get the same memory image, CSRs and start state:
//
//   * fast    — the decode cache on, driven through Core::run_block() (or
//               Core::run()), so whole blocks run per call;
//   * classic — CoreConfig::decode_cache = false: fetch, decode and execute
//               one instruction per step, the reference;
//   * stepped — the decode cache on, driven one Core::step() at a time.
//
// After every return of the fast core the other two take the same number of
// steps, and lockstep_difference() names the first disagreement: the step
// result, an architectural field, or a merged_stats() counter. Every counter
// but bbcache.* is compared with the classic core. The classic core
// publishes no bbcache.* counters, so those are compared with the stepped
// core, whose one-step calls count them as per-step dispatch does.
//
// setup_seeded_program() draws a random program with isa::Assembler from a
// seed: loads, stores and AMOs over two data pages, forward branches,
// backward loops, jal/jalr calls, stores that patch the instruction a few
// words ahead in the running block or the first word of a subroutine about
// to be called (Lockstep.PatchedSuccessorOnAnotherPage pins the case where
// only a chained successor's own guard sees such a store), timer arming (a csrw mtimecmp) that fires inside blocks,
// and (in M-mode) PMP writes that leave every block stale, in M-mode
// (bare) or U/S-mode under Sv39.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/core.h"

namespace ptstore::harness {

/// Where `fast` and `ref` first differ after steps that returned `f` and
/// `r`: "step result ...", "<arch field>: ...", or "<counter>: ...". With
/// `bbcache` only the bbcache.* counters are compared, otherwise every other
/// counter. Empty when they agree.
std::string lockstep_difference(const Core& fast, const StepResult& f, const Core& ref,
                                const StepResult& r, bool bbcache);

class Lockstep {
 public:
  struct Machine {
    Machine(u64 dram_bytes, const CoreConfig& cfg)
        : mem(kDramBase, dram_bytes), core(mem, cfg) {}
    PhysMem mem;
    Core core;
  };

  /// How run() calls the fast core.
  enum class Call : u8 { kRunBlock, kCoreRun };

  struct Outcome {
    u64 steps = 0;           ///< Steps every machine took.
    bool halted = false;     ///< ebreak or wfi halt before the bound.
    std::string divergence;  ///< First difference ("step N, pc P: ..."), or empty.
  };

  explicit Lockstep(u64 dram_bytes = MiB(64), const CoreConfig& cfg = {});

  Machine& fast() { return *fast_; }
  Machine& classic() { return *classic_; }

  /// Run until a halt, a divergence or `max_steps` steps. The fast core is
  /// given at most `chunk` steps per call. After the run, memory contents
  /// must agree too.
  Outcome run(u64 max_steps, u64 chunk = ~u64{0}, Call call = Call::kRunBlock);

  // ---- identical set-up on every machine ----
  void each(const std::function<void(PhysMem&, Core&)>& f);
  void poke(PhysAddr pa, u64 v);
  void load(PhysAddr pa, const std::vector<u32>& words);
  /// Write a CSR at M-level; false if any core rejects it.
  bool set_csr(u32 num, u64 v);
  void start(VirtAddr pc, Privilege priv);

  // ---- Sv39 page tables built in physical memory ----
  /// A fresh DRAM frame for code or data. Consecutive frames are not
  /// adjacent, so a VA-contiguous mapping is PA-discontiguous.
  PhysAddr frame();
  /// A fresh page-table page.
  PhysAddr new_table();
  /// Physical address of the PTE slot for `va` at `level`, creating the
  /// intermediate tables on the way.
  PhysAddr slot(PhysAddr root, VirtAddr va, unsigned level = 0);
  void map(PhysAddr root, VirtAddr va, PhysAddr pa, u64 flags, unsigned level = 0);
  /// Load VA-contiguous code starting at page-aligned `va` into fresh
  /// frames, one per page, and map each page.
  void map_code(PhysAddr root, VirtAddr va, const std::vector<u32>& words, u64 flags);
  static u64 sv39(PhysAddr root, u16 asid);

 private:
  std::unique_ptr<Machine> fast_;
  std::unique_ptr<Machine> classic_;
  std::unique_ptr<Machine> stepped_;
  PhysAddr next_frame_ = kDramBase + MiB(8);
  PhysAddr next_table_ = kDramBase + MiB(48);
};

/// What setup_seeded_program() drew, for the caller's end checks.
struct SeededProgram {
  Privilege priv = Privilege::kMachine;  ///< Mode the program runs in.
  u64 max_steps = 0;                     ///< A bound it halts within.
  u64 chunk = 0;                         ///< Suggested fast-core budget per call.
};

/// Draw the program of `seed` and set it up on every machine of `ls`, whose
/// cores must be fresh. The program halts through its M-mode handler: an
/// ebreak at its end leaves mcause = breakpoint and stops on wfi.
SeededProgram setup_seeded_program(Lockstep& ls, u64 seed);

}  // namespace ptstore::harness
