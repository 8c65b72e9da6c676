// Byte-for-byte gate over every static-analysis output the verifiers ship:
// for each image of the ptlint corpus, the ptflow corpus, the four reference
// kernels and examples/programs/*.s, the ptlint report (plus its
// access-class map), the ptflow report under the image's backend, the call
// graph (functions, owned blocks, call sites, bottom-up/SCC order) and the
// SARIF of both drivers must match tests/golden/analysis_*.txt exactly.
// Ptmc.Golden pins the model checker the same way: the summary and JSON of
// every closure the CLI runs by default (defaults, mutation matrix and
// backends at 1 and 2 harts, gadget) plus depth- and state-truncated runs
// must match tests/golden/ptmc.txt.
//
// On a mismatch the actual dump is written to
// <build>/tests/analysis_golden.actual/<same file name>, so drift reads as a
// plain diff against the golden; copying that file over the golden accepts
// an intended change.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/callgraph.h"
#include "analysis/corpus.h"
#include "analysis/flow_corpus.h"
#include "analysis/ptflow.h"
#include "analysis/ptlint.h"
#include "analysis/ptmc.h"
#include "analysis/sarif.h"

namespace ptstore::analysis {
namespace {

// ptlint's CLI defaults: 512 MiB DRAM with the 64 MiB secure region at its
// top, standalone programs loaded 64 MiB into user space.
constexpr u64 kSrEnd = kDramBase + MiB(512);
constexpr u64 kSrBase = kSrEnd - MiB(64);
constexpr u64 kProgramBase = kUserSpaceBase + MiB(64);

std::string hex(u64 v) {
  std::ostringstream os;
  os << "0x" << std::hex << v;
  return os.str();
}

std::string dump_callgraph(const CallGraph& cg) {
  std::ostringstream os;
  for (const Function& fn : cg.functions()) {
    os << "fn " << hex(fn.entry) << " " << fn.name
       << (fn.has_unresolved_call ? " unresolved-call" : "") << "\n  blocks";
    for (const u64 b : fn.blocks) os << " " << hex(b);
    os << "\n";
    for (const CallSite& cs : fn.calls) {
      os << "  call " << hex(cs.pc) << " ->";
      for (const u64 t : cs.targets) os << " " << hex(t);
      os << (cs.resolved ? " resolved" : " unresolved")
         << (cs.tail ? " tail" : "") << "\n";
    }
  }
  os << "bottom-up";
  for (const u64 e : cg.bottom_up()) {
    os << " " << hex(e) << "/scc" << cg.scc_id(e)
       << (cg.recursive(e) ? "/rec" : "");
  }
  os << "\n";
  return os.str();
}

std::string dump_image(const std::string& uri, const Image& img,
                       BackendKind backend) {
  LintConfig cfg;
  cfg.sr_base = kSrBase;
  cfg.sr_end = kSrEnd;
  const LintReport lint = lint_image(img, cfg);
  const FlowSpec spec = FlowSpec::for_backend(backend, kSrBase, kSrEnd);
  const FlowReport flow = flow_verify(img, spec);

  std::ostringstream os;
  os << "=== " << uri << " (" << to_string(backend) << ") ===\n"
     << "--- ptlint ---\n"
     << lint.format() << "access classes:\n";
  for (const auto& [pc, cls] : lint.access_class) {
    os << "  " << hex(pc) << " " << access_class_name(cls) << "\n";
  }
  os << "--- ptflow ---\n"
     << flow.format() << "--- call graph ---\n"
     << dump_callgraph(CallGraph::build(img, spec.extra_roots))
     << "--- ptlint sarif ---\n"
     << to_sarif(lint, uri) << "\n--- ptflow sarif ---\n"
     << to_sarif(flow, uri) << "\n";
  return os.str();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Compare `actual` with the golden `file`; on mismatch, write the actual
/// dump next to the test binary and report the first differing line.
void expect_golden(const std::string& file, const std::string& actual) {
  const std::string golden = read_file(std::string(PTSTORE_GOLDEN_DIR) + "/" + file);
  if (golden == actual) return;
  const std::filesystem::path out_dir(PTSTORE_GOLDEN_ACTUAL_DIR);
  std::filesystem::create_directories(out_dir);
  std::ofstream(out_dir / file) << actual;

  std::istringstream g(golden), a(actual);
  std::string gl, al;
  size_t line = 0;
  while (true) {
    ++line;
    const bool more_g = static_cast<bool>(std::getline(g, gl));
    const bool more_a = static_cast<bool>(std::getline(a, al));
    if (!more_g && !more_a) break;
    if (!more_g || !more_a || gl != al) {
      ADD_FAILURE() << file << " differs from the golden at line " << line
                    << "\n  golden: " << (more_g ? gl : "<eof>")
                    << "\n  actual: " << (more_a ? al : "<eof>")
                    << "\n  full dump: " << (out_dir / file).string();
      return;
    }
  }
}

TEST(AnalysisGolden, LintCorpus) {
  std::string dump;
  for (const CorpusEntry& e : violation_corpus(kSrBase, kSrEnd)) {
    dump += dump_image("corpus:" + e.name, e.image, BackendKind::kPtstore);
  }
  expect_golden("analysis_lint_corpus.txt", dump);
}

TEST(AnalysisGolden, FlowCorpus) {
  std::string dump;
  for (const FlowCorpusEntry& e : flow_violation_corpus(kSrBase, kSrEnd)) {
    dump += dump_image("flow-corpus:" + e.name, e.image, e.backend);
  }
  expect_golden("analysis_flow_corpus.txt", dump);
}

TEST(AnalysisGolden, ReferenceKernels) {
  std::string dump;
  for (const BackendKind k : {BackendKind::kStock, BackendKind::kPtstore,
                              BackendKind::kDpti, BackendKind::kPtauth}) {
    dump += dump_image(std::string("kernel:") + to_string(k),
                       reference_kernel_image(k, kSrBase, kSrEnd), k);
  }
  expect_golden("analysis_kernels.txt", dump);
}

TEST(AnalysisGolden, ExamplePrograms) {
  std::string dump;
  for (const char* prog : {"hello", "segfault", "sum"}) {
    const std::string rel = std::string("examples/programs/") + prog + ".s";
    const std::string source = read_file(std::string(PTSTORE_SOURCE_DIR) + "/" + rel);
    ASSERT_FALSE(source.empty()) << rel;
    const isa::AsmResult res = isa::assemble_text(source, kProgramBase);
    ASSERT_TRUE(res.ok) << rel << ": " << res.error.message;
    dump += dump_image(rel, Image::from_assembly(res, kProgramBase),
                       BackendKind::kPtstore);
  }
  expect_golden("analysis_programs.txt", dump);
}

namespace mc = ptmc;

/// The configuration `ptmc --backend NAME --harts N` checks: the
/// ModelConfig defaults bound the single-hart PTStore-like closures, and a
/// second hart or PTAuth's unrestricted placement get 20 / 8,000,000.
mc::ModelConfig cli_config(const std::string& backend, unsigned harts) {
  mc::ModelConfig cfg;
  cfg.nharts = harts;
  if (backend == "stock") {
    cfg.s_bit = cfg.ptw_check = cfg.token_check = cfg.zero_check = false;
    cfg.stop_after_violated = mc::kAllProps;
  } else if (backend == "dpti") {
    cfg.ptw_check = false;
    cfg.cred_unforgeable = true;
  } else if (backend == "ptauth") {
    cfg.s_bit = false;
    cfg.ptw_check = false;
    cfg.verify_on_walk = true;
    cfg.cred_unforgeable = true;
  }
  if (harts >= 2 || backend == "ptauth") {
    cfg.max_depth = 20;
    cfg.max_states = 8'000'000;
  }
  return cfg;
}

std::string dump_check(const std::string& label, const mc::ModelConfig& cfg) {
  const mc::CheckResult res = mc::check(cfg);
  return "=== " + label + " ===\n" + res.format() + mc::to_json(res) + "\n";
}

TEST(Ptmc, Golden) {
  std::string dump = dump_check("defaults", mc::ModelConfig{});
  for (const unsigned harts : {1u, 2u}) {
    // `ptmc --matrix --harts N`: each entry stops once its targets fall.
    for (const mc::MutationEntry& e : mc::mutation_matrix(cli_config("ptstore", harts))) {
      mc::ModelConfig cfg = e.cfg;
      cfg.stop_after_violated = e.must_break;
      dump += dump_check("mutate " + std::string(e.name) + " harts " +
                             std::to_string(harts), cfg);
    }
  }
  for (const char* backend : {"stock", "ptstore", "dpti", "ptauth"}) {
    dump += dump_check(std::string("backend ") + backend + " harts 1",
                       cli_config(backend, 1));
  }
  // PTAuth's 2-hart closure (6.7M states) is left to CI's ptmc job.
  for (const char* backend : {"stock", "ptstore", "dpti"}) {
    dump += dump_check(std::string("backend ") + backend + " harts 2",
                       cli_config(backend, 2));
  }
  mc::ModelConfig gadget;
  gadget.csr_gadget = true;
  dump += dump_check("csr_gadget", gadget);
  mc::ModelConfig shallow;
  shallow.max_depth = 6;
  dump += dump_check("max_depth 6", shallow);
  // State budgets: 50,000, plus one state either side of every point where
  // ptmc's visited table grows inside the defaults' 253,570-state closure.
  // The table starts at 4096 slots and doubles when an insert leaves it
  // more than 3/4 full, so it grows on inserting state slots * 3/4 + 1.
  std::vector<u64> budgets{50'000};
  for (u64 slots = 4096; slots * 3 / 4 < 253'570; slots *= 2) {
    budgets.push_back(slots * 3 / 4);
    budgets.push_back(slots * 3 / 4 + 2);
  }
  for (const u64 budget : budgets) {
    mc::ModelConfig capped;
    capped.max_states = budget;
    dump += dump_check("max_states " + std::to_string(budget), capped);
  }
  expect_golden("ptmc.txt", dump);
}

}  // namespace
}  // namespace ptstore::analysis
