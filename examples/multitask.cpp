// Preemptive multitasking demo: three guest processes, each a CPU-bound
// counting loop that periodically reports progress via write(), scheduled
// round-robin on a hardware timer quantum (a real delegated machine-timer
// interrupt ends each slice). Each context switch is a token-validated
// satp update onto a different secure-region page table.
//
//   $ ./examples/multitask
#include <cstdio>

#include "isa/assembler.h"
#include "kernel/guest.h"
#include "kernel/system.h"

using namespace ptstore;
using isa::Assembler;
using isa::Reg;

namespace {

/// Guest program: count to `limit`, printing its tag every `period`
/// iterations, then exit(tag).
std::vector<u32> worker(char tag, u64 limit, u64 period) {
  Assembler a(kUserSpaceBase + MiB(64));
  a.li(Reg::kSp, GuestRunner::kStackTop - 16);
  a.li(Reg::kT2, tag);
  a.sb(Reg::kT2, Reg::kSp, 0);  // One-character message buffer.
  a.li(Reg::kS0, 0);            // counter
  a.li(Reg::kS1, limit);
  a.li(Reg::kS2, period);
  a.li(Reg::kS3, 0);            // since-last-report
  auto loop = a.make_label();
  auto no_report = a.make_label();
  a.bind(loop);
  a.addi(Reg::kS0, Reg::kS0, 1);
  a.addi(Reg::kS3, Reg::kS3, 1);
  a.blt(Reg::kS3, Reg::kS2, no_report);
  // write(1, sp, 1)
  a.li(Reg::kA0, 1);
  a.mv(Reg::kA1, Reg::kSp);
  a.li(Reg::kA2, 1);
  a.li(Reg::kA7, 64);
  a.ecall();
  a.li(Reg::kS3, 0);
  a.bind(no_report);
  a.blt(Reg::kS0, Reg::kS1, loop);
  a.li(Reg::kA0, tag);
  a.li(Reg::kA7, 93);  // exit(tag)
  a.ecall();
  return a.finish();
}

}  // namespace

int main() {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  auto sys_or = System::create(cfg);
  if (!sys_or) {
    std::fprintf(stderr, "system configuration rejected: %s\n",
                 sys_or.error().c_str());
    return 1;
  }
  System& sys = *sys_or.value();
  Kernel& k = sys.kernel();
  GuestRunner runner(k);

  const VirtAddr entry = kUserSpaceBase + MiB(64);
  struct Task {
    Process* proc;
    char tag;
    bool done = false;
    std::string console;
  };
  std::vector<Task> tasks;
  for (const char tag : {'A', 'B', 'C'}) {
    Process* p = k.processes().fork(sys.init());
    if (p == nullptr || !runner.load_program(*p, entry, worker(tag, 5000, 500))) {
      std::fprintf(stderr, "setup failed\n");
      return 1;
    }
    tasks.push_back(Task{p, tag, false, {}});
  }

  // Round-robin scheduler: ~1,200-cycle hardware-timer quanta until all exit.
  constexpr Cycles kQuantum = 1200;
  u64 slices = 0;
  u64 preemptions = 0;
  std::string timeline;
  for (bool any_live = true; any_live;) {
    any_live = false;
    for (Task& t : tasks) {
      if (t.done) continue;
      const GuestResult r = runner.run_slice_timed(*t.proc, entry, kQuantum);
      preemptions += r.preempted ? 1 : 0;
      t.console += r.console;
      timeline.push_back(t.tag);
      ++slices;
      if (r.exited) {
        t.done = true;
        std::printf("task %c exited with code %llu\n", t.tag,
                    (unsigned long long)r.exit_code);
      } else if (r.faulted) {
        t.done = true;
        std::printf("task %c died: %s\n", t.tag, isa::to_string(r.fault));
      } else {
        any_live = true;
      }
    }
  }

  std::printf("\nschedule timeline (%llu slices, %llu timer preemptions): %s\n",
              (unsigned long long)slices, (unsigned long long)preemptions,
              timeline.c_str());
  for (const Task& t : tasks) {
    std::printf("task %c progress reports: %s\n", t.tag, t.console.c_str());
  }
  std::printf("\ncontext switches: %llu (each a token-validated satp write)\n",
              (unsigned long long)k.counters().value_of("process.switches"));
  std::printf("token rejects: %llu (all switches legitimate)\n",
              (unsigned long long)k.counters().value_of("process.token_rejects"));
  for (Task& t : tasks) k.processes().exit(*t.proc);
  return 0;
}
