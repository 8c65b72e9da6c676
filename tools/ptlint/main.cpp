// ptlint CLI: statically verify PTStore isolation invariants over an
// assembled guest program (docs/ANALYSIS.md).
//
//   ptlint [options] file.s         lint a text-assembly program (R1–R4)
//   ptlint --corpus all             self-check against the seeded-violation
//                                   corpus (each entry must produce exactly
//                                   its expected verdict)
//   ptlint --flow [options] file.s  interprocedural taint & mediation
//                                   verification (T1–T3, M1–M2) under the
//                                   backend selected with --backend
//   ptlint --flow --kernel          verify the backend's reference kernel
//                                   image (the shipped protocol paths)
//   ptlint --flow --corpus all      self-check against the flow corpus;
//                                   --backend filters to one backend's trio
//
// Options:
//   --base ADDR        load address of file.s (default: guest_cli's image
//                      base, 64 GiB + 64 MiB)
//   --sr BASE:END      secure region bounds (default: the paper's default
//                      machine — 512 MiB DRAM, 64 MiB region at the top)
//   --backend B        isolation backend for --flow: stock, ptstore, dpti,
//                      ptauth (also accepted as --backend=B; default ptstore)
//   --expect-clean     exit 1 if any violation is reported (default mode
//                      already does this; the flag documents test intent)
//   --expect-violation exit 0 only if at least one violation is reported
//   --sarif FILE       also write the report as SARIF 2.1.0 (single-file
//                      and --kernel modes; CI uploads this to code scanning)
//   --witness          refine every violation with bounded symbolic
//                      execution (ptsym): search for a replayable witness
//                      path, replay it on the concrete System, and print a
//                      WITNESSED / BOUNDED-UNREACHABLE / UNKNOWN verdict
//                      per diagnostic. In corpus modes each seeded
//                      violation must come back WITNESSED.
//   --witness-budget N solver split budget per diagnostic (default 4096)
//   --witness-json F   write all verdicts + witness traces as JSON
//   -v                 also print notes and summary for clean images
//   -h, --help         print the usage text and exit 0
//
// Exit codes: 0 expectation met, 1 violated, 2 usage/input error. With
// --witness (single-file / --kernel modes) the refinement outcome is
// encoded too: 1 witnessed violations, 3 every violation
// BOUNDED-UNREACHABLE, 4 some verdict UNKNOWN, 0 clean.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/corpus.h"
#include "analysis/flow_corpus.h"
#include "analysis/ptflow.h"
#include "analysis/ptlint.h"
#include "analysis/sarif.h"
#include "analysis/symexec/ptsym.h"
#include "attacks/witness_replay.h"
#include "kernel/pagetable.h"

namespace {

using namespace ptstore;
using namespace ptstore::analysis;

/// Default machine shape (SystemConfig defaults): 512 MiB DRAM with the
/// 64 MiB secure region at its top.
constexpr u64 kDefaultSrEnd = kDramBase + MiB(512);
constexpr u64 kDefaultSrBase = kDefaultSrEnd - MiB(64);
constexpr u64 kDefaultImageBase = kUserSpaceBase + MiB(64);

bool parse_u64(const std::string& s, u64* out) {
  try {
    size_t pos = 0;
    *out = std::stoull(s, &pos, 0);
    return pos == s.size();
  } catch (...) {
    return false;
  }
}

int usage(int rc = 2) {
  std::fprintf(stderr,
               "usage: ptlint [--base ADDR] [--sr BASE:END] [--expect-clean | "
               "--expect-violation] [--sarif FILE] [--witness] "
               "[--witness-budget N] [--witness-json FILE] [-v] file.s\n"
               "       ptlint [--sr BASE:END] [--witness] --corpus <name|all>\n"
               "       ptlint --flow [--backend B] [--sr BASE:END] "
               "[--sarif FILE] [--witness] [-v] "
               "(file.s | --kernel | --corpus <name|all>)\n"
               "       ptlint -h | --help\n");
  return rc;
}

namespace symx = ptstore::analysis::symexec;

/// Witness-mode options threaded through every driver mode.
struct WitnessOpts {
  bool enabled = false;
  symx::WitnessBudget budget;
  std::string json_path;
  /// Verdicts accumulated across the run for --witness-json.
  std::vector<symx::SymVerdict> all;
};

/// Replay every candidate witness on the concrete System for `backend`;
/// failures downgrade the verdict to UNKNOWN (a witness that does not
/// reproduce architecturally is no witness).
void replay_verdicts(const Image& img, BackendKind backend,
                     std::vector<symx::SymVerdict>& verdicts) {
  for (symx::SymVerdict& v : verdicts) {
    if (v.verdict != symx::Verdict::kWitnessed || !v.witness) continue;
    const attacks::WitnessReplayReport rr =
        attacks::replay_witness(img, *v.witness, backend);
    if (rr.ok) {
      v.detail += "; replayed " + std::to_string(rr.steps) + " step(s), " +
                  rr.detail;
    } else {
      v.verdict = symx::Verdict::kUnknown;
      v.detail = "replay failed: " + rr.detail;
      v.witness.reset();
    }
  }
}

void print_verdicts(const std::vector<symx::SymVerdict>& verdicts) {
  for (const symx::SymVerdict& v : verdicts) {
    std::printf("  witness %s @0x%llx: %s — %s\n", v.rule_id.c_str(),
                static_cast<unsigned long long>(v.pc),
                symx::verdict_name(v.verdict), v.detail.c_str());
  }
}

/// Witness-mode exit code for single-file / kernel runs. Witnessed
/// violations dominate (the finding is confirmed real), then UNKNOWN,
/// then all-BOUNDED-UNREACHABLE, then clean.
int witness_exit(const std::vector<symx::SymVerdict>& verdicts,
                 bool expect_violation) {
  size_t witnessed = 0, unknown = 0, unreachable = 0;
  for (const symx::SymVerdict& v : verdicts) {
    switch (v.verdict) {
      case symx::Verdict::kWitnessed: ++witnessed; break;
      case symx::Verdict::kUnknown: ++unknown; break;
      case symx::Verdict::kBoundedUnreachable: ++unreachable; break;
    }
  }
  std::printf("ptsym: %zu witnessed, %zu bounded-unreachable, %zu unknown\n",
              witnessed, unreachable, unknown);
  if (expect_violation) return witnessed > 0 ? 0 : 1;
  if (witnessed > 0) return 1;
  if (unknown > 0) return 4;
  if (unreachable > 0) return 3;
  return 0;
}

/// Flush accumulated verdicts to --witness-json. Returns false on I/O error.
bool write_witness_json(WitnessOpts& w, const std::string& image_name,
                        const std::string& backend_name) {
  if (w.json_path.empty()) return true;
  std::ofstream jf(w.json_path);
  if (!jf) {
    std::fprintf(stderr, "ptlint: cannot write %s\n", w.json_path.c_str());
    return false;
  }
  jf << symx::witnesses_to_json(w.all, image_name, backend_name);
  return true;
}

bool write_sarif(const std::string& path, const std::string& doc,
                 const char* tool) {
  std::ofstream sf(path);
  if (!sf) {
    std::fprintf(stderr, "%s: cannot write %s\n", tool, path.c_str());
    return false;
  }
  sf << doc;
  return true;
}

int run_corpus(const std::string& which, u64 sr_base, u64 sr_end, bool verbose,
               WitnessOpts& wit) {
  const auto corpus = violation_corpus(sr_base, sr_end);
  if (which != "all" && find_entry(corpus, which) == nullptr) {
    std::fprintf(stderr, "ptlint: unknown corpus entry '%s'\n", which.c_str());
    return 2;
  }
  LintConfig cfg;
  cfg.sr_base = sr_base;
  cfg.sr_end = sr_end;
  int failures = 0;
  for (const CorpusEntry& e : corpus) {
    if (which != "all" && e.name != which) continue;
    const LintReport rep = lint_image(e.image, cfg);
    bool pass;
    if (e.expect_clean) {
      pass = rep.clean();
    } else {
      pass = false;
      for (const Diag* d : rep.violations()) {
        if (d->kind == e.expected) pass = true;
      }
    }
    std::printf("%-18s %s  (%s: expected %s)\n", e.name.c_str(),
                pass ? "PASS" : "FAIL", e.description.c_str(),
                e.expect_clean ? "clean" : diag_kind_name(e.expected));
    if (!pass || verbose) std::fputs(rep.format().c_str(), stdout);
    if (wit.enabled && pass && !e.expect_clean) {
      // The seeded diagnostic must refine to WITNESSED and survive replay
      // (ptlint invariants are PTStore's; replay under that backend).
      std::vector<symx::SymVerdict> verdicts =
          symx::symexec_lint(e.image, rep, cfg, wit.budget);
      replay_verdicts(e.image, BackendKind::kPtstore, verdicts);
      bool witnessed = false;
      for (const symx::SymVerdict& v : verdicts) {
        if (v.kind_index == static_cast<unsigned>(e.expected) &&
            v.verdict == symx::Verdict::kWitnessed)
          witnessed = true;
      }
      print_verdicts(verdicts);
      if (!witnessed) {
        std::printf("%-18s WITNESS-FAIL (expected %s WITNESSED)\n",
                    e.name.c_str(), diag_kind_name(e.expected));
        ++failures;
      }
      wit.all.insert(wit.all.end(),
                     std::make_move_iterator(verdicts.begin()),
                     std::make_move_iterator(verdicts.end()));
    }
    failures += pass ? 0 : 1;
  }
  if (!write_witness_json(wit, "corpus:" + which, "ptstore")) return 2;
  return failures == 0 ? 0 : 1;
}

int run_flow_corpus(const std::string& which, BackendKind backend,
                    bool backend_given, u64 sr_base, u64 sr_end, bool verbose,
                    WitnessOpts& wit) {
  const auto corpus = flow_violation_corpus(sr_base, sr_end);
  if (which != "all" && find_flow_entry(corpus, which) == nullptr) {
    std::fprintf(stderr, "ptlint: unknown flow corpus entry '%s'\n",
                 which.c_str());
    return 2;
  }
  int failures = 0;
  for (const FlowCorpusEntry& e : corpus) {
    if (which != "all" && e.name != which) continue;
    if (which == "all" && backend_given && e.backend != backend) continue;
    const FlowSpec spec = FlowSpec::for_backend(e.backend, sr_base, sr_end);
    const FlowReport rep = flow_verify(e.image, spec);
    bool pass;
    if (e.expect_clean) {
      pass = rep.clean();
    } else {
      pass = false;
      for (const FlowDiag* d : rep.violations()) {
        if (d->kind == e.expected) pass = true;
      }
    }
    std::printf("%-34s %s  (%s: expected %s)\n", e.name.c_str(),
                pass ? "PASS" : "FAIL", e.description.c_str(),
                e.expect_clean ? "clean" : flow_diag_kind_name(e.expected));
    if (!pass || verbose) std::fputs(rep.format().c_str(), stdout);
    if (wit.enabled && pass && !e.expect_clean) {
      // The seeded flow diagnostic must refine to WITNESSED and replay on
      // the System configured for this entry's backend.
      std::vector<symx::SymVerdict> verdicts =
          symx::symexec_flow(e.image, rep, spec, wit.budget);
      replay_verdicts(e.image, e.backend, verdicts);
      bool witnessed = false;
      for (const symx::SymVerdict& v : verdicts) {
        if (v.kind_index == static_cast<unsigned>(e.expected) &&
            v.verdict == symx::Verdict::kWitnessed)
          witnessed = true;
      }
      print_verdicts(verdicts);
      if (!witnessed) {
        std::printf("%-34s WITNESS-FAIL (expected %s WITNESSED)\n",
                    e.name.c_str(), flow_diag_kind_name(e.expected));
        ++failures;
      }
      wit.all.insert(wit.all.end(),
                     std::make_move_iterator(verdicts.begin()),
                     std::make_move_iterator(verdicts.end()));
    }
    failures += pass ? 0 : 1;
  }
  if (!write_witness_json(wit, "flow-corpus:" + which,
                          backend_given ? to_string(backend) : "all"))
    return 2;
  return failures == 0 ? 0 : 1;
}

int report_flow(const FlowReport& rep, const Image& img, const FlowSpec& spec,
                BackendKind backend, const std::string& what,
                const std::string& sarif_path, bool expect_violation,
                bool verbose, WitnessOpts& wit) {
  std::vector<symx::SymVerdict> verdicts;
  if (wit.enabled) {
    verdicts = symx::symexec_flow(img, rep, spec, wit.budget);
    replay_verdicts(img, backend, verdicts);
  }
  if (!sarif_path.empty() &&
      !write_sarif(sarif_path,
                   to_sarif(rep, what, wit.enabled ? &verdicts : nullptr),
                   "ptlint")) {
    return 2;
  }
  const size_t violations = rep.violation_count();
  if (violations > 0 || verbose) std::fputs(rep.format().c_str(), stdout);
  if (wit.enabled) print_verdicts(verdicts);
  std::printf("%s: %zu function(s), %zu call site(s), %zu unresolved, "
              "%zu violation(s)\n",
              what.c_str(), rep.function_count, rep.callsite_count,
              rep.unresolved_calls, violations);
  if (wit.enabled) {
    const int rc = witness_exit(verdicts, expect_violation);
    wit.all = std::move(verdicts);
    if (!write_witness_json(wit, what, to_string(backend))) return 2;
    return rc;
  }
  if (expect_violation) return violations > 0 ? 0 : 1;
  return violations == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  u64 base = kDefaultImageBase;
  u64 sr_base = kDefaultSrBase;
  u64 sr_end = kDefaultSrEnd;
  std::string file;
  std::string corpus;
  std::string sarif_path;
  std::string backend_name;
  bool flow = false;
  bool kernel = false;
  bool expect_violation = false;
  bool verbose = false;
  WitnessOpts wit;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--base") {
      const char* v = next();
      if (v == nullptr || !parse_u64(v, &base)) return usage();
    } else if (arg == "--sr") {
      const char* v = next();
      if (v == nullptr) return usage();
      const std::string s(v);
      const size_t colon = s.find(':');
      if (colon == std::string::npos ||
          !parse_u64(s.substr(0, colon), &sr_base) ||
          !parse_u64(s.substr(colon + 1), &sr_end) || sr_base >= sr_end) {
        return usage();
      }
    } else if (arg == "--corpus") {
      const char* v = next();
      if (v == nullptr) return usage();
      corpus = v;
    } else if (arg == "--sarif") {
      const char* v = next();
      if (v == nullptr) return usage();
      sarif_path = v;
    } else if (arg == "--backend") {
      const char* v = next();
      if (v == nullptr) return usage();
      backend_name = v;
    } else if (arg.rfind("--backend=", 0) == 0) {
      backend_name = arg.substr(10);
    } else if (arg == "--witness") {
      wit.enabled = true;
    } else if (arg == "--witness-budget") {
      const char* v = next();
      u64 n = 0;
      if (v == nullptr || !parse_u64(v, &n) || n == 0) return usage();
      wit.budget.solver_splits = static_cast<u32>(n);
    } else if (arg == "--witness-json") {
      const char* v = next();
      if (v == nullptr) return usage();
      wit.json_path = v;
    } else if (arg == "--flow") {
      flow = true;
    } else if (arg == "--kernel") {
      kernel = true;
    } else if (arg == "--expect-clean") {
      expect_violation = false;
    } else if (arg == "--expect-violation") {
      expect_violation = true;
    } else if (arg == "-v") {
      verbose = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(0);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }

  BackendKind backend = BackendKind::kPtstore;
  if (!backend_name.empty()) {
    const auto k = backend_kind_from(backend_name);
    if (!k || *k == BackendKind::kAuto) {
      std::fprintf(stderr, "ptlint: unknown backend '%s'\n",
                   backend_name.c_str());
      return 2;
    }
    backend = *k;
  }
  if ((kernel || !backend_name.empty()) && !flow) return usage();

  if (flow) {
    if (!corpus.empty()) {
      return run_flow_corpus(corpus, backend, !backend_name.empty(), sr_base,
                             sr_end, verbose, wit);
    }
    if (kernel) {
      const Image img = reference_kernel_image(backend, sr_base, sr_end);
      const FlowSpec spec = FlowSpec::for_backend(backend, sr_base, sr_end);
      return report_flow(flow_verify(img, spec), img, spec, backend,
                         std::string("kernel:") + to_string(backend),
                         sarif_path, expect_violation, verbose, wit);
    }
    if (file.empty()) return usage();
    std::ifstream in(file);
    if (!in) {
      std::fprintf(stderr, "ptlint: cannot read %s\n", file.c_str());
      return 2;
    }
    std::ostringstream source;
    source << in.rdbuf();
    const isa::AsmResult res = isa::assemble_text(source.str(), base);
    if (!res.ok) {
      std::fprintf(stderr, "ptlint: %s: assembly failed: %s\n", file.c_str(),
                   res.error.message.c_str());
      return 2;
    }
    const Image img = Image::from_assembly(res, base);
    const FlowSpec spec = FlowSpec::for_backend(backend, sr_base, sr_end);
    return report_flow(flow_verify(img, spec), img, spec, backend, file,
                       sarif_path, expect_violation, verbose, wit);
  }

  if (!corpus.empty())
    return run_corpus(corpus, sr_base, sr_end, verbose, wit);
  if (file.empty()) return usage();

  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "ptlint: cannot read %s\n", file.c_str());
    return 2;
  }
  std::ostringstream source;
  source << in.rdbuf();

  const isa::AsmResult res = isa::assemble_text(source.str(), base);
  if (!res.ok) {
    std::fprintf(stderr, "ptlint: %s: assembly failed: %s\n", file.c_str(),
                 res.error.message.c_str());
    return 2;
  }

  LintConfig cfg;
  cfg.sr_base = sr_base;
  cfg.sr_end = sr_end;
  const Image img = Image::from_assembly(res, base);
  const LintReport rep = lint_image(img, cfg);

  std::vector<symx::SymVerdict> verdicts;
  if (wit.enabled) {
    verdicts = symx::symexec_lint(img, rep, cfg, wit.budget);
    replay_verdicts(img, BackendKind::kPtstore, verdicts);
  }

  if (!sarif_path.empty() &&
      !write_sarif(sarif_path,
                   to_sarif(rep, file, wit.enabled ? &verdicts : nullptr),
                   "ptlint")) {
    return 2;
  }

  const size_t violations = rep.violation_count();
  if (violations > 0 || verbose) std::fputs(rep.format().c_str(), stdout);
  if (wit.enabled) print_verdicts(verdicts);
  std::printf("%s: %zu instruction(s), %zu reachable, %zu violation(s)\n",
              file.c_str(), img.words.size(), rep.reachable.size(), violations);
  if (wit.enabled) {
    const int rc = witness_exit(verdicts, expect_violation);
    wit.all = std::move(verdicts);
    if (!write_witness_json(wit, file, "ptstore")) return 2;
    return rc;
  }
  if (expect_violation) return violations > 0 ? 0 : 1;
  return violations == 0 ? 0 : 1;
}
