// Attack demo: the full §V-E attack battery against the unprotected
// baseline and the PTStore system, side by side.
//
//   $ ./examples/attack_demo
#include <cstdio>

#include "harness/battery.h"

using namespace ptstore;

int main() {
  SystemConfig base = SystemConfig::baseline();
  base.dram_size = MiB(256);
  SystemConfig pt = SystemConfig::cfi_ptstore();
  pt.dram_size = MiB(256);

  const auto base_reports = attacks::run_all(base);
  const auto pt_reports = attacks::run_all(pt);

  std::printf("%-22s | %-18s | %-28s\n", "attack class", "baseline kernel",
              "CFI + PTStore");
  std::printf("%s\n", std::string(76, '-').c_str());
  for (size_t i = 0; i < base_reports.size(); ++i) {
    std::printf("%-22s | %-18s | %-28s\n", base_reports[i].name.c_str(),
                base_reports[i].defended() ? "defended" : "COMPROMISED",
                attacks::to_string(pt_reports[i].outcome));
  }

  std::printf("\nDetails (PTStore):\n");
  for (const auto& r : pt_reports) {
    std::printf("  %-22s %s\n", r.name.c_str(), r.detail.c_str());
  }

  int defended = 0;
  for (const auto& r : pt_reports) defended += r.defended() ? 1 : 0;
  std::printf("\nPTStore defended %d/%zu attack classes.\n", defended,
              pt_reports.size());
  return defended == static_cast<int>(pt_reports.size()) ? 0 : 1;
}
