// Hello, guest: assemble a real U-mode program, load it into a process,
// and run it on the interpreter — page faults demand-paged and syscalls
// served by the C++ kernel, every page-table walk satp.S-checked. The
// tracer shows the last instructions the guest executed.
//
//   $ ./examples/hello_guest
#include <cstdio>

#include "cpu/tracer.h"
#include "isa/assembler.h"
#include "kernel/guest.h"
#include "kernel/system.h"

using namespace ptstore;
using isa::Assembler;
using isa::Reg;

int main() {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(256);
  auto sys_or = System::create(cfg);
  if (!sys_or) {
    std::fprintf(stderr, "system configuration rejected: %s\n",
                 sys_or.error().c_str());
    return 1;
  }
  System& sys = *sys_or.value();
  Process* proc = sys.kernel().processes().fork(sys.init());

  // The guest: build "PTStore, hello!\n" on its stack (the first store
  // demand-faults the stack page in), write(1, sp, 16), getpid, exit(pid).
  const VirtAddr entry = kUserSpaceBase + MiB(64);
  Assembler p(entry);
  p.li(Reg::kSp, GuestRunner::kStackTop - 32);
  p.li(Reg::kT0, 0x2C65726F74535450);  // "PTStore," (little-endian)
  p.sd(Reg::kT0, Reg::kSp, 0);
  p.li(Reg::kT0, 0x0A216F6C6C656820);  // " hello!\n"
  p.sd(Reg::kT0, Reg::kSp, 8);
  p.li(Reg::kA0, 1);                   // fd = stdout
  p.mv(Reg::kA1, Reg::kSp);
  p.li(Reg::kA2, 16);
  p.li(Reg::kA7, 64);                  // write
  p.ecall();
  p.li(Reg::kA7, 172);                 // getpid
  p.ecall();
  p.li(Reg::kA7, 93);                  // exit(pid)
  p.ecall();

  GuestRunner runner(sys.kernel());
  if (!runner.load_program(*proc, entry, p.finish())) {
    std::fprintf(stderr, "failed to load guest program\n");
    return 1;
  }

  Tracer tracer(16);
  tracer.attach(sys.core());
  const GuestResult r = runner.run(*proc, entry);
  tracer.detach(sys.core());

  std::printf("guest console: %s", r.console.c_str());
  std::printf("guest %s with code %llu after %llu instructions\n",
              r.exited ? "exited" : "died",
              (unsigned long long)r.exit_code,
              (unsigned long long)r.instructions);
  std::printf("\nlast %zu instructions (tracer):\n", tracer.records().size());
  for (const auto& line : tracer.format_tail(16)) {
    std::printf("  %s\n", line.c_str());
  }
  std::printf("\nkernel handled %llu page faults for this guest\n",
              (unsigned long long)sys.report().get("process.faults"));
  return r.exited && r.exit_code == proc->pid ? 0 : 1;
}
