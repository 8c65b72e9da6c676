// ptmc CLI — bounded model checking of the PTStore reference monitor, with
// counterexample replay against the concrete simulator.
//
//   ptmc --all                 check P1..P4 with every defence on
//   ptmc --mutate sbit         disable one defence set, expect a violation
//   ptmc --matrix [--replay]   run the whole mutation matrix (the §V-E
//                              substitution argument, machine-checked)
//   ptmc --gadget              grant the attacker a satp-write gadget
//   ptmc --harts 2             two model harts: concurrent switch_mm /
//                              user_access interleavings + the shootdown
//                              protocol (see --mutate ipi)
//   ptmc --backend NAME        model another backend's capability set
//                              (stock | ptstore | dpti | ptauth); stock is
//                              expected to violate, like --mutate
//   ptmc --dot FILE            write the first counterexample as GraphViz
//   ptmc --json [FILE]         emit the CheckResult as JSON
//
// -h/--help prints the usage text and exits 0. With -v, each check also
// prints its host cost to stderr: states, transitions, seconds, states/s and
// the number of BFS worker threads.
//
// Exit codes: 0 = expectations met, 1 = property/expectation failure,
// 2 = usage error.
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "analysis/ptmc.h"
#include "harness/ptmc_replay.h"

namespace {

using namespace ptstore;
namespace mc = analysis::ptmc;

// Default bounds under --harts 2 or --backend ptauth, whose closures are
// far larger than the ModelConfig defaults cover (see main()).
constexpr u32 kWideDepth = 20;
constexpr u64 kWideStates = 8'000'000;

int usage(int rc = 2) {
  const mc::ModelConfig defaults;
  std::fprintf(stderr,
               "usage: ptmc [--all | --mutate NAME | --matrix] [options]\n"
               "  --all            prove P1..P4 under full defences (default)\n"
               "  --prop N         restrict the verdict to property N (1..4)\n"
               "  --mutate NAME    disable a defence set: ptw | token | sbit |\n"
               "                   zero | ptw-alone | ipi (--harts 2)\n"
               "  --matrix         run every mutation entry and check its\n"
               "                   expected violations\n"
               "  --replay         replay each counterexample on the concrete\n"
               "                   simulator (mutated + stock)\n"
               "  --depth N        BFS depth bound (default %u; %u with\n"
               "                   --harts 2 or --backend ptauth)\n"
               "  --states N       visited-state budget (default %llu; %llu\n"
               "                   with --harts 2 or --backend ptauth)\n"
               "  --gadget         grant the attacker a satp-write gadget\n"
               "  --harts N        model harts (1 or 2; default 1)\n"
               "  --skip-ipi       sabotage: exit_mm skips shootdown IPIs\n"
               "  --backend NAME   capability set: stock | ptstore | dpti |\n"
               "                   ptauth (stock expects violations)\n"
               "  --no-grow        disable secure-region growth\n"
               "  --dot FILE       write first counterexample as GraphViz\n"
               "  --json [FILE]    emit result JSON (stdout without FILE)\n"
               "  -v               verbose (print traces; host cost on stderr)\n"
               "  -h, --help       print this help and exit\n",
               defaults.max_depth, kWideDepth,
               static_cast<unsigned long long>(defaults.max_states),
               static_cast<unsigned long long>(kWideStates));
  return rc;
}

/// Writes `text` to `path` (named by the `what` option); on failure says so
/// and returns false.
bool write_file(const char* what, const std::string& path,
                const std::string& text) {
  std::ofstream f(path);
  if (f) f << text;
  if (f.good()) return true;
  std::fprintf(stderr, "ptmc: cannot write %s file '%s'\n", what, path.c_str());
  return false;
}

/// Parses a decimal integer in [1, max]; anything else (empty, signed,
/// trailing characters, zero, out of range) is rejected.
bool parse_positive(const char* text, u64 max, u64& out) {
  if (text[0] < '0' || text[0] > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || v == 0 || v > max) return false;
  out = v;
  return true;
}

/// check(), with its host cost on stderr under -v.
mc::CheckResult timed_check(const mc::ModelConfig& cfg, bool verbose) {
  const auto t0 = std::chrono::steady_clock::now();
  mc::CheckResult res = mc::check(cfg);
  const double s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (verbose) {
    std::fprintf(stderr,
                 "ptmc: %llu states, %llu transitions in %.3f s host "
                 "(%.0f states/s, %u workers)\n",
                 static_cast<unsigned long long>(res.states),
                 static_cast<unsigned long long>(res.transitions), s,
                 s > 0 ? static_cast<double>(res.states) / s : 0.0,
                 mc::worker_count());
  }
  return res;
}

void print_result(const mc::CheckResult& res, bool verbose) {
  std::fputs(res.format().c_str(), stdout);
  if (verbose) {
    for (const auto& ce : res.counterexamples) {
      std::printf("trace detail (%s):\n", mc::prop_name(ce.prop));
      mc::State prev = mc::State::initial();
      std::printf("    %s\n", mc::describe(prev).c_str());
      for (const auto& st : ce.steps) {
        std::printf("  %s\n    %s\n", mc::describe(st.op).c_str(),
                    mc::describe(st.after).c_str());
        prev = st.after;
      }
    }
  }
}

/// Replay every counterexample: mutated config must reproduce the attack,
/// the stock config must stop it. Returns false on any mismatch.
bool replay_all(const mc::CheckResult& res, bool verbose) {
  bool ok = true;
  for (const auto& ce : res.counterexamples) {
    const harness::ReplayReport mut = harness::replay_counterexample(ce);
    const harness::ReplayReport stock = harness::replay_on_stock(ce);
    std::printf("  replay %s: mutated -> %s; stock -> %s\n",
                mc::prop_name(ce.prop), attacks::to_string(mut.outcome),
                attacks::to_string(stock.outcome));
    if (verbose) {
      for (const auto& line : mut.log) std::printf("    [mut] %s\n", line.c_str());
      std::printf("    [mut] %s\n", mut.detail.c_str());
      for (const auto& line : stock.log)
        std::printf("    [stock] %s\n", line.c_str());
      std::printf("    [stock] %s\n", stock.detail.c_str());
    }
    if (mut.outcome != attacks::Outcome::kSucceeded) {
      std::printf("    FAIL: counterexample did not reproduce on the mutated "
                  "system (%s)\n",
                  mut.detail.c_str());
      ok = false;
    }
    if (!stock.defended()) {
      std::printf("    FAIL: stock system did not stop the trace (%s)\n",
                  stock.detail.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  enum class Mode { kAll, kMutate, kMatrix };
  Mode mode = Mode::kAll;
  std::string mutate_name;
  mc::ModelConfig cfg;
  bool verbose = false;
  bool replay = false;
  bool states_set = false;
  bool depth_set = false;
  bool expect_breach = false;  // --backend stock: violations are the verdict.
  bool unrestricted_placement = false;  // ptauth: larger closure, see below.
  int prop_filter = 0;
  std::string dot_path;
  bool json_out = false;
  std::string json_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "ptmc: %s needs an argument\n", what);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--all") {
      mode = Mode::kAll;
    } else if (arg == "--mutate") {
      const char* n = next("--mutate");
      if (n == nullptr) return usage();
      mode = Mode::kMutate;
      mutate_name = n;
    } else if (arg == "--matrix") {
      mode = Mode::kMatrix;
    } else if (arg == "--replay") {
      replay = true;
    } else if (arg == "--prop") {
      const char* n = next("--prop");
      if (n == nullptr) return usage();
      prop_filter = std::atoi(n);
      if (prop_filter < 1 || prop_filter > 4) return usage();
    } else if (arg == "--depth") {
      const char* n = next("--depth");
      if (n == nullptr) return usage();
      u64 v = 0;
      if (!parse_positive(n, std::numeric_limits<u32>::max(), v)) {
        std::fprintf(stderr, "ptmc: --depth needs a positive integer, got '%s'\n", n);
        return usage();
      }
      cfg.max_depth = static_cast<u32>(v);
      depth_set = true;
    } else if (arg == "--states") {
      const char* n = next("--states");
      if (n == nullptr) return usage();
      if (!parse_positive(n, std::numeric_limits<u64>::max(), cfg.max_states)) {
        std::fprintf(stderr, "ptmc: --states needs a positive integer, got '%s'\n", n);
        return usage();
      }
      states_set = true;
    } else if (arg == "--harts") {
      const char* n = next("--harts");
      if (n == nullptr) return usage();
      const int h = std::atoi(n);
      if (h < 1 || h > 2) {
        std::fprintf(stderr, "ptmc: --harts must be 1 or 2\n");
        return usage();
      }
      cfg.nharts = static_cast<unsigned>(h);
    } else if (arg == "--skip-ipi") {
      cfg.ipi = false;
    } else if (arg == "--backend") {
      const char* n = next("--backend");
      if (n == nullptr) return usage();
      const std::string name = n;
      if (name == "ptstore") {
        // The defaults *are* the PTStore capability set.
      } else if (name == "stock") {
        cfg.s_bit = cfg.ptw_check = cfg.token_check = cfg.zero_check = false;
        expect_breach = true;
      } else if (name == "dpti") {
        // Protected domain plays the secure region's role (regular stores
        // fault); the root registry is the switch-time check; no satp.S.
        cfg.ptw_check = false;
        cfg.cred_unforgeable = true;
      } else if (name == "ptauth") {
        // No placement restriction at all — the keyed MAC authenticates
        // every credential and every fetched PTE instead.
        cfg.s_bit = false;
        cfg.ptw_check = false;
        cfg.verify_on_walk = true;
        cfg.cred_unforgeable = true;
        unrestricted_placement = true;
      } else {
        std::fprintf(stderr, "ptmc: unknown backend '%s'\n", name.c_str());
        return usage();
      }
    } else if (arg == "--gadget") {
      cfg.csr_gadget = true;
    } else if (arg == "--no-grow") {
      cfg.allow_grow = false;
    } else if (arg == "--dot") {
      const char* n = next("--dot");
      if (n == nullptr) return usage();
      dot_path = n;
    } else if (arg == "--json") {
      json_out = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') json_path = argv[++i];
    } else if (arg == "-v" || arg == "--verbose") {
      verbose = true;
    } else if (arg == "-h" || arg == "--help") {
      return usage(0);
    } else {
      std::fprintf(stderr, "ptmc: unknown argument '%s'\n", arg.c_str());
      return usage();
    }
  }

  // The second hart multiplies the closure (~4x), and PTAuth's
  // unrestricted PT-page placement multiplies it again (its closure needs
  // ~2.3M states / depth 16 single-hart, ~6.7M / depth 17 at two harts).
  // Give the default bounds the same headroom so "--harts 2" and
  // "--backend ptauth" still close exhaustively without hand-tuning.
  if (cfg.nharts >= 2 || unrestricted_placement) {
    if (!states_set) cfg.max_states = kWideStates;
    if (!depth_set) cfg.max_depth = kWideDepth;
  }
  // An undefended kernel violates everything; stop as soon as each checked
  // property has its counterexample instead of sweeping the huge closure.
  if (expect_breach && cfg.stop_after_violated == 0) {
    cfg.stop_after_violated =
        prop_filter == 0 ? mc::kAllProps
                         : static_cast<u8>(1u << (prop_filter - 1));
  }

  if (mode == Mode::kMatrix) {
    bool ok = true;
    for (const auto& entry : mc::mutation_matrix(cfg)) {
      mc::ModelConfig mcfg = entry.cfg;
      mcfg.stop_after_violated = entry.must_break;
      const mc::CheckResult res = timed_check(mcfg, verbose);
      const u8 unexpected =
          res.props_violated & static_cast<u8>(~(entry.must_break | entry.may_also_break));
      const bool entry_ok =
          (res.props_violated & entry.must_break) == entry.must_break &&
          unexpected == 0;
      std::printf("mutation '%s': violated={", entry.name);
      for (unsigned p = 0; p < mc::kNumProps; ++p)
        if (res.props_violated & (1u << p)) std::printf(" %s", mc::prop_name(p));
      std::printf(" } expected={");
      for (unsigned p = 0; p < mc::kNumProps; ++p)
        if (entry.must_break & (1u << p)) std::printf(" %s", mc::prop_name(p));
      std::printf(" } %s\n", entry_ok ? "ok" : "MISMATCH");
      if (verbose) {
        std::printf("  rationale: %s\n", entry.rationale);
        print_result(res, verbose);
      }
      if (!entry_ok) ok = false;
      if (replay && !replay_all(res, verbose)) ok = false;
      if (!dot_path.empty() && !res.counterexamples.empty()) {
        if (!write_file("--dot", dot_path, mc::to_dot(res.counterexamples.front())))
          return 2;
        dot_path.clear();  // First counterexample only.
      }
    }
    return ok ? 0 : 1;
  }

  if (mode == Mode::kMutate) {
    bool found = false;
    for (const auto& entry : mc::mutation_matrix(cfg)) {
      if (mutate_name == entry.name) {
        cfg = entry.cfg;
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "ptmc: unknown mutation '%s'\n", mutate_name.c_str());
      return usage();
    }
  }

  const mc::CheckResult res = timed_check(cfg, verbose);
  print_result(res, verbose);
  if (!dot_path.empty() && !res.counterexamples.empty() &&
      !write_file("--dot", dot_path, mc::to_dot(res.counterexamples.front())))
    return 2;
  if (json_out) {
    const std::string doc = mc::to_json(res);
    if (json_path.empty())
      std::fputs((doc + "\n").c_str(), stdout);
    else if (!write_file("--json", json_path, doc))
      return 2;
  }
  if (replay && !replay_all(res, verbose)) return 1;

  const u8 relevant =
      prop_filter == 0 ? mc::kAllProps : static_cast<u8>(1u << (prop_filter - 1));
  if (mode == Mode::kAll && !expect_breach)
    return (res.props_violated & relevant) == 0 ? 0 : 1;
  // --mutate / --backend stock: finding the violation is the expected outcome.
  return (res.props_violated & relevant) != 0 ? 0 : 1;
}
