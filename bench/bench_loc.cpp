// Reproduces Table I: lines of code per PTStore component.
//
// The paper counts the lines its patches add/change in the Chisel core, the
// LLVM back-end, and the Linux kernel. The analogue here is the size of the
// code in this repository that exists *only because of PTStore* — the
// mechanism files, not the substrate (the substrate corresponds to the
// unmodified BOOM/LLVM/Linux the patches apply to). Counted at runtime from
// the source tree.
#include <fstream>

#include "workloads/runner.h"

#ifndef PTSTORE_SOURCE_DIR
#define PTSTORE_SOURCE_DIR "."
#endif

namespace {

ptstore::u64 count_lines(const std::string& path) {
  std::ifstream in(std::string(PTSTORE_SOURCE_DIR) + "/" + path);
  ptstore::u64 lines = 0;
  std::string line;
  while (std::getline(in, line)) ++lines;
  return lines;
}

struct Component {
  const char* name;
  const char* paper_language;
  ptstore::u64 paper_total;
  std::vector<std::string> files;
};

class LocBench : public ptstore::workloads::Workload {
 public:
  std::string name() const override { return "loc"; }
  std::string title() const override {
    return "Table I — lines of code per PTStore component\n"
           "Paper counts patch lines against BOOM/LLVM/Linux; this repository\n"
           "implements the same mechanisms as standalone modules over a simulated\n"
           "substrate, so its counts are necessarily larger. Reported for scale\n"
           "comparison, not equality.";
  }

  int run() override {
    const std::vector<Component> components = {
        {"RISC-V Processor (secure region, ld.pt/sd.pt, PTW check)",
         "Chisel",
         58,
         {"src/pmp/pmp.h", "src/pmp/pmp.cpp", "src/mmu/mmu.h", "src/mmu/mmu.cpp",
          "src/isa/csr.h"}},
        {"LLVM Back-end (new instruction encodings)",
         "C++ and TableGen",
         15,
         {"src/isa/inst.h", "src/isa/decode.cpp", "src/isa/assembler.h",
          "src/isa/assembler.cpp"}},
        {"Linux Kernel (zone, GFP_PTSTORE, tokens, process mgmt)",
         "C",
         1405,
         {"src/kernel/page_alloc.h", "src/kernel/page_alloc.cpp",
          "src/kernel/token.h", "src/kernel/token.cpp", "src/kernel/pagetable.h",
          "src/kernel/pagetable.cpp", "src/kernel/process.h",
          "src/kernel/process.cpp", "src/sbi/sbi.h", "src/sbi/sbi.cpp"}},
        // Beyond the paper: the paper trusts an LLVM pass to confine ld.pt/
        // sd.pt to page-table code; ptlint turns that trust into a checked
        // static verifier (docs/ANALYSIS.md). No paper LoC row exists.
        {"ptlint static verifier (CFG + abstract interpretation)",
         "C++ (no paper analogue)",
         0,
         {"src/analysis/domain.h", "src/analysis/domain.cpp",
          "src/analysis/image.h", "src/analysis/image.cpp",
          "src/analysis/cfg.h", "src/analysis/cfg.cpp",
          "src/analysis/ptlint.h", "src/analysis/ptlint.cpp",
          "src/analysis/trace_check.h", "src/analysis/trace_check.cpp",
          "src/analysis/corpus.h", "src/analysis/corpus.cpp",
          "src/analysis/pt_audit.h", "src/analysis/pt_audit.cpp",
          "tools/ptlint/main.cpp"}},
    };

    std::printf("%-60s %10s %12s\n", "component", "paper LoC", "this repo");
    ptstore::u64 total = 0, paper_total = 0;
    for (const auto& c : components) {
      ptstore::u64 lines = 0;
      for (const auto& f : c.files) lines += count_lines(f);
      std::printf("%-60s %10llu %12llu\n", c.name,
                  static_cast<unsigned long long>(c.paper_total),
                  static_cast<unsigned long long>(lines));
      total += lines;
      paper_total += c.paper_total;
    }
    std::printf("%-60s %10llu %12llu\n", "TOTAL",
                static_cast<unsigned long long>(paper_total),
                static_cast<unsigned long long>(total));
    std::printf("\nTakeaway preserved from the paper: the kernel side dominates; the\n"
                "hardware and compiler changes are tiny by comparison.\n");
    return 0;
  }
};

}  // namespace

int main(int argc, char** argv) {
  return ptstore::workloads::run_workload_main_with(std::make_unique<LocBench>(),
                                                    argc, argv);
}
