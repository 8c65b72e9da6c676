// Byte-for-byte gate over the machine's counter reports: every key, value,
// unit and description (MetricsRegistry metadata) of System::report() after
// a short guest program plus a fixed copy/switch/alloc/exit protocol-op
// sequence — on cfi_ptstore with the decode cache on and off, and on cfi
// (stock) — and of report() plus core(1).merged_stats() on a 2-hart
// cfi_ptstore machine after hart 1 runs a process and hart 0 downgrades its
// page. The dumps must match tests/golden/counters.txt exactly.
//
// On a mismatch the actual dump is written to
// <build>/tests/counter_golden.actual/counters.txt, so drift reads as a
// plain diff against the golden; copying that file over the golden accepts
// an intended change.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "kernel/guest.h"
#include "kernel/protocol.h"
#include "kernel/system.h"
#include "mmu/pte.h"
#include "telemetry/metrics.h"

namespace ptstore {
namespace {

using isa::Assembler;
using isa::Reg;

constexpr VirtAddr kEntry = kUserSpaceBase + MiB(64);
constexpr VirtAddr kRaceVa = kUserSpaceBase + MiB(8);

std::string dump(const std::string& title, const StatSet& s) {
  const telemetry::MetricsRegistry& reg = telemetry::MetricsRegistry::instance();
  std::ostringstream os;
  os << "=== " << title << " ===\n";
  for (const auto& [name, value] : s.counters()) {
    os << name << " = " << value;
    if (const auto id = reg.find(name)) {
      const telemetry::CounterMeta m = reg.meta(*id);
      os << " [" << m.unit << "] " << m.description;
    }
    os << "\n";
  }
  return os.str();
}

/// A guest that sums 1..200, stores every partial sum into a 2 KiB stack
/// buffer, reads the buffer back, writes four bytes to the console and
/// exits: enough to touch the fetch path, L1D/DTLB, the branch predictor,
/// demand faults and syscalls.
void guest_program(Assembler& a) {
  a.li(Reg::kSp, GuestRunner::kStackTop - 4096);
  a.li(Reg::kT0, 200);
  a.li(Reg::kA0, 0);
  a.mv(Reg::kT1, Reg::kSp);
  auto fill = a.make_label();
  a.bind(fill);
  a.add(Reg::kA0, Reg::kA0, Reg::kT0);
  a.sd(Reg::kA0, Reg::kT1, 0);
  a.addi(Reg::kT1, Reg::kT1, 8);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, fill);
  a.li(Reg::kT0, 200);
  a.li(Reg::kA1, 0);
  a.mv(Reg::kT1, Reg::kSp);
  auto sum = a.make_label();
  a.bind(sum);
  a.ld(Reg::kT2, Reg::kT1, 0);
  a.add(Reg::kA1, Reg::kA1, Reg::kT2);
  a.addi(Reg::kT1, Reg::kT1, 8);
  a.addi(Reg::kT0, Reg::kT0, -1);
  a.bnez(Reg::kT0, sum);
  a.li(Reg::kT0, 0x0A6B6F21);  // "!ok\n" little-endian.
  a.sw(Reg::kT0, Reg::kSp, 0);
  a.li(Reg::kA0, 1);
  a.mv(Reg::kA1, Reg::kSp);
  a.li(Reg::kA2, 4);
  a.li(Reg::kA7, 64);  // write
  a.ecall();
  a.li(Reg::kA0, 0);
  a.li(Reg::kA7, 93);  // exit
  a.ecall();
}

/// The guest program, then fork/switch/alloc_pt/exit through the protocol
/// layer and one grow of the secure region.
std::string run_single_hart(const std::string& title, SystemConfig cfg) {
  cfg.dram_size = MiB(256);
  System sys(cfg);
  Kernel& k = sys.kernel();

  Process* guest = k.processes().fork(sys.init());
  EXPECT_NE(guest, nullptr);
  GuestRunner runner(k);
  Assembler a(kEntry);
  guest_program(a);
  EXPECT_TRUE(runner.load_program(*guest, kEntry, a.finish()));
  const GuestResult r = runner.run(*guest, kEntry, 100'000);
  EXPECT_TRUE(r.exited) << title;

  ProtocolOps proto(k);
  for (int i = 0; i < 3; ++i) {
    ProtoResult fork = proto.copy_mm(sys.init());
    EXPECT_TRUE(fork.ok()) << title;
    Process* child = k.processes().find(fork.pid);
    EXPECT_NE(child, nullptr);
    if (child == nullptr) continue;
    const VirtAddr va = kUserSpaceBase + GiB(1 + i);
    EXPECT_TRUE(proto.switch_mm(*child).ok()) << title;
    EXPECT_TRUE(proto.alloc_pt(*child, va).ok()) << title;
    EXPECT_TRUE(k.user_access(*child, va, /*write=*/false)) << title;
    EXPECT_TRUE(proto.switch_mm(sys.init()).ok()) << title;
    EXPECT_TRUE(proto.exit_mm(*child).ok()) << title;
  }
  proto.grow(0);
  return dump(title + ": report()", sys.report());
}

/// smp_shootdown_test's warm/protect sequence: hart 1 runs a process that
/// writes kRaceVa, then hart 0 downgrades the page to read-only.
std::string run_two_harts() {
  SystemConfig cfg = SystemConfig::cfi_ptstore();
  cfg.dram_size = MiB(128);
  cfg.nharts = 2;
  System sys(cfg);
  Kernel& k = sys.kernel();
  Process* p = k.processes().fork(sys.init());
  EXPECT_NE(p, nullptr);
  EXPECT_TRUE(k.processes().add_vma(*p, kRaceVa, kPageSize, pte::kR | pte::kW));
  k.set_active_hart(1);
  EXPECT_EQ(k.processes().switch_to(*p), SwitchResult::kOk);
  EXPECT_TRUE(k.user_access(*p, kRaceVa, /*write=*/true));
  k.set_active_hart(0);
  EXPECT_TRUE(k.processes().protect_vma(*p, kRaceVa, kPageSize, pte::kR));
  return dump("cfi_ptstore 2 harts: report()", sys.report()) +
         dump("cfi_ptstore 2 harts: core(1).merged_stats()",
              sys.core(1).merged_stats());
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
  const std::filesystem::path out_dir(PTSTORE_COUNTER_GOLDEN_ACTUAL_DIR);
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

TEST(CounterGolden, Reports) {
  SystemConfig no_bbcache = SystemConfig::cfi_ptstore();
  no_bbcache.core.decode_cache = false;
  const std::string actual =
      run_single_hart("cfi_ptstore decode cache on", SystemConfig::cfi_ptstore()) +
      run_single_hart("cfi_ptstore decode cache off", no_bbcache) +
      run_single_hart("cfi", SystemConfig::cfi()) + run_two_harts();
  expect_golden("counters.txt", actual);
}

}  // namespace
}  // namespace ptstore
