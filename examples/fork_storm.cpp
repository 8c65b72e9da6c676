// Fork storm: watch the secure region grow on demand (paper §IV-C1).
// Creates processes until the PTStore zone overflows its initial 16 MiB,
// printing the boundary after every adjustment.
//
//   $ ./examples/fork_storm [num_processes]
#include <cstdio>
#include <vector>

#include "common/args.h"
#include "kernel/system.h"

using namespace ptstore;

int main(int argc, char** argv) {
  u64 procs = 8000;
  if (argc > 1) {
    const auto v = parse_arg("num_processes", argv[1]);
    if (!v) return 2;
    procs = *v;
  }

  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  cfg.kernel.secure_region_init = MiB(16);
  auto sys_or = System::create(cfg);
  if (!sys_or) {
    std::fprintf(stderr, "system configuration rejected: %s\n",
                 sys_or.error().c_str());
    return 1;
  }
  System& sys = *sys_or.value();
  Kernel& k = sys.kernel();

  std::printf("initial secure region: [0x%llx, 0x%llx) = %llu MiB\n",
              (unsigned long long)sys.sbi().sr_get().base,
              (unsigned long long)sys.sbi().sr_get().end,
              (unsigned long long)(sys.sbi().sr_get().size() >> 20));

  std::vector<u64> pids;
  pids.reserve(procs);
  u64 seen_adjustments = 0;
  for (u64 i = 0; i < procs; ++i) {
    Process* child = k.processes().fork(sys.init());
    if (child == nullptr) {
      std::printf("fork failed at %llu processes (out of memory)\n",
                  (unsigned long long)i);
      break;
    }
    pids.push_back(child->pid);
    if (k.adjustments() != seen_adjustments) {
      seen_adjustments = k.adjustments();
      const SecureRegion sr = sys.sbi().sr_get();
      std::printf("adjustment #%llu at %llu processes: region now "
                  "[0x%llx, 0x%llx) = %llu MiB, free PT pages %llu\n",
                  (unsigned long long)seen_adjustments, (unsigned long long)(i + 1),
                  (unsigned long long)sr.base, (unsigned long long)sr.end,
                  (unsigned long long)(sr.size() >> 20),
                  (unsigned long long)k.pages().ptstore().free_pages_count());
    }
  }

  std::printf("\n%zu processes alive; PT pages allocated: %llu; "
              "token objects: %llu\n",
              pids.size(),
              (unsigned long long)k.pagetables().pt_pages_allocated(),
              (unsigned long long)k.token_cache().objects_in_use());

  for (const u64 pid : pids) {
    Process* p = k.processes().find(pid);
    if (p != nullptr) k.processes().exit(*p);
  }
  k.processes().switch_to(sys.init());
  std::printf("all reaped; secure region stays at %llu MiB (grow-only policy), "
              "free PT pages %llu\n",
              (unsigned long long)(sys.sbi().sr_get().size() >> 20),
              (unsigned long long)k.pages().ptstore().free_pages_count());
  std::printf("simulated cycles: %llu (adjustments: %llu)\n",
              (unsigned long long)sys.cycles(),
              (unsigned long long)k.adjustments());
  return 0;
}
