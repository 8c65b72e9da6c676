// Reproduces the §V-E security analysis as an executable defence matrix:
// all eight attack scenarios against the unprotected baseline, a CFI-only
// kernel, and the full CFI+PTStore system.
#include "analysis/corpus.h"
#include "analysis/ptlint.h"
#include "harness/battery.h"
#include "workloads/runner.h"

using namespace ptstore;
using namespace ptstore::attacks;

namespace {

class SecurityBench : public workloads::Workload {
 public:
  std::string name() const override { return "security"; }
  std::string title() const override {
    return "Security analysis (paper §V-E) — attack classes vs. configurations\n"
           "PT-Tampering / PT-Injection / PT-Reuse (§II-B), allocator-metadata\n"
           "(§V-E3), VM-metadata (§V-E4), TLB-inconsistency (§V-E5)";
  }

  int run() override {
    int rc = 0;

    SystemConfig base = SystemConfig::baseline();
    base.dram_size = MiB(256);
    run_config("baseline (no CFI, no PTStore)", base, false, &rc);

    SystemConfig cfi = SystemConfig::cfi();
    cfi.dram_size = MiB(256);
    run_config("CFI only (data-only attacks bypass CFI)", cfi, false, &rc);

    SystemConfig pt = SystemConfig::cfi_ptstore();
    pt.dram_size = MiB(256);
    run_config("CFI + PTStore", pt, true, &rc);

    // Defence-in-depth ablation: which mechanism catches PT-Injection.
    SystemConfig no_token = pt;
    no_token.kernel.token_check = false;
    std::printf("\n--- ablation: PTStore without token check ---\n");
    {
      auto sys = System::create(no_token);
      if (!sys) {
        std::fprintf(stderr, "config error: %s\n", sys.error().c_str());
        return 2;
      }
      const AttackReport r = pt_injection(*sys.value());
      std::printf("  %-20s %-36s %s\n", r.name.c_str(), to_string(r.outcome),
                  r.detail.c_str());
      std::printf("  => the satp.S walker check stops injection even without tokens\n");
      if (!r.defended()) rc = 1;
    }

    // Static line of defence: ptlint flags the same attack shapes before any
    // code runs (the paper relies on an LLVM pass for this guarantee; here it
    // is a verifier — see docs/ANALYSIS.md).
    std::printf("\n--- static analysis: ptlint over the seeded-violation corpus ---\n");
    {
      constexpr u64 kSrBase = 0x9C000000, kSrEnd = 0xA0000000;
      analysis::LintConfig lcfg;
      lcfg.sr_base = kSrBase;
      lcfg.sr_end = kSrEnd;
      size_t caught = 0, seeded = 0;
      for (const auto& e : analysis::violation_corpus(kSrBase, kSrEnd)) {
        const analysis::LintReport rep = analysis::lint_image(e.image, lcfg);
        const bool pass = e.expect_clean ? rep.clean() : !rep.clean();
        if (!e.expect_clean) {
          ++seeded;
          caught += rep.clean() ? 0 : 1;
        }
        std::printf("  %-20s %-36s %s\n", e.name.c_str(),
                    e.expect_clean ? "clean (benign near-miss)"
                                   : "flagged before execution",
                    pass ? "ok" : "MISSED");
        if (!pass) rc = 1;
      }
      std::printf("  => %zu/%zu seeded violations caught statically\n", caught,
                  seeded);
    }
    return rc;
  }

 private:
  static void run_config(const char* name, const SystemConfig& cfg,
                         bool expect_defended, int* rc) {
    std::printf("\n--- %s ---\n", name);
    size_t defended = 0;
    const auto reports = run_all(cfg);
    for (const auto& r : reports) {
      std::printf("  %-20s %-36s %s\n", r.name.c_str(), to_string(r.outcome),
                  r.detail.c_str());
      defended += r.defended() ? 1 : 0;
    }
    std::printf("  => %zu/%zu attack classes defended (expected: %s)\n", defended,
                reports.size(), expect_defended ? "all" : "none");
    if (expect_defended && defended != reports.size()) *rc = 1;
  }
};

}  // namespace

int main(int argc, char** argv) {
  return workloads::run_workload_main_with(std::make_unique<SecurityBench>(),
                                           argc, argv);
}
