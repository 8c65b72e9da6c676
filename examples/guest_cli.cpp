// ptstore guest CLI: run a flat binary of RV64 machine code as a U-mode
// process on the simulated PTStore machine.
//
//   $ ./examples/guest_cli program.bin [--baseline] [--trace] [--max N]
//   $ ./examples/guest_cli --asm program.s [--trace]
//
// Without --asm the file is raw little-endian RV64 code (e.g. produced
// with `riscv64-unknown-elf-objcopy -O binary`); with --asm it is text
// assembly for the in-tree assembler (see src/isa/text_asm.h). Either way
// it loads at the user entry point and runs in U-mode. Syscall ABI:
// write(64)/exit(93)/getpid(172)/brk(214) — see docs/KERNEL.md. With no
// arguments, a built-in demo program runs.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/args.h"
#include "cpu/tracer.h"
#include "isa/assembler.h"
#include "isa/text_asm.h"
#include "kernel/guest.h"
#include "kernel/system.h"

using namespace ptstore;

namespace {

std::vector<u32> builtin_demo() {
  using isa::Reg;
  isa::Assembler a(kUserSpaceBase + MiB(64));
  // Compute 12! iteratively, exit with the low byte (~0x00 wraps; use 10!).
  a.li(Reg::kT0, 10);
  a.li(Reg::kA0, 1);
  auto loop = a.make_label();
  a.bind(loop);
  a.mul(Reg::kA0, Reg::kA0, Reg::kT0);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, loop);
  a.li(Reg::kA7, 93);
  a.ecall();
  return a.finish();
}

std::vector<u32> load_binary(const char* path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  std::vector<u32> words((bytes.size() + 3) / 4, 0);
  std::memcpy(words.data(), bytes.data(), bytes.size());
  return words;
}

}  // namespace

int main(int argc, char** argv) {
  const char* file = nullptr;
  bool baseline = false, trace = false, as_text = false;
  u64 max_insts = 10'000'000;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--baseline") == 0) {
      baseline = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      trace = true;
    } else if (std::strcmp(argv[i], "--asm") == 0) {
      as_text = true;
    } else if (std::strcmp(argv[i], "--max") == 0 && i + 1 < argc) {
      const auto v = parse_arg("--max", argv[++i]);
      if (!v) return 2;
      max_insts = *v;
    } else {
      file = argv[i];
    }
  }

  SystemConfig cfg = baseline ? SystemConfig::baseline() : SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(512);
  auto sys_or = System::create(cfg);
  if (!sys_or) {
    std::fprintf(stderr, "system configuration rejected: %s\n",
                 sys_or.error().c_str());
    return 1;
  }
  System& sys = *sys_or.value();
  Process* proc = sys.kernel().processes().fork(sys.init());

  const VirtAddr load_entry = kUserSpaceBase + MiB(64);
  std::vector<u32> code;
  if (file == nullptr) {
    code = builtin_demo();
  } else if (as_text) {
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "could not read %s\n", file);
      return 2;
    }
    const std::string src((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    const isa::AsmResult r = isa::assemble_text(src, load_entry);
    if (!r.ok) {
      std::fprintf(stderr, "%s:%u: %s\n", file, r.error.line,
                   r.error.message.c_str());
      return 2;
    }
    code = r.words;
  } else {
    code = load_binary(file);
  }
  if (code.empty()) {
    std::fprintf(stderr, "could not read %s\n", file);
    return 2;
  }
  std::printf("running %s (%zu words) on the %s machine\n",
              file != nullptr ? file : "<built-in demo: 10! then exit>",
              code.size(), baseline ? "baseline" : "CFI+PTStore");

  const VirtAddr entry = kUserSpaceBase + MiB(64);
  GuestRunner runner(sys.kernel());
  if (!runner.load_program(*proc, entry, code)) {
    std::fprintf(stderr, "load failed\n");
    return 2;
  }

  Tracer tracer(32);
  if (trace) tracer.attach(sys.core());
  const GuestResult r = runner.run(*proc, entry, max_insts);
  if (trace) {
    tracer.detach(sys.core());
    std::printf("--- last %zu instructions ---\n", tracer.records().size());
    for (const auto& line : tracer.format_tail(32)) std::printf("%s\n", line.c_str());
  }

  if (!r.console.empty()) std::printf("--- console ---\n%s", r.console.c_str());
  if (r.exited) {
    std::printf("exit(%llu) after %llu instructions, %llu cycles\n",
                (unsigned long long)r.exit_code,
                (unsigned long long)r.instructions,
                (unsigned long long)sys.cycles());
    return static_cast<int>(r.exit_code & 0xFF);
  }
  if (r.faulted) {
    std::printf("guest died: %s\n", isa::to_string(r.fault));
    return 139;
  }
  std::printf("instruction budget exhausted (%llu)\n",
              (unsigned long long)max_insts);
  return 124;
}
