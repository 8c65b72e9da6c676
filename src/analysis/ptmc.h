// ptmc — bounded explicit-state model checker for the PTStore reference
// monitor.
//
// The concrete simulator (src/kernel) implements the paper's protocol in
// full architectural detail; ptmc abstracts it into a finite transition
// system small enough to enumerate exhaustively within a bound:
//
//   * 4 physical pages (a secure-region / normal-memory boundary splits
//     them; the boundary can move down once, modelling §IV-C1 growth and
//     its dirty-donation hazard),
//   * 2 processes, each with a PCB page-table pointer and a PCB token
//     pointer (both in attacker-writable normal memory — §III threat
//     model), plus the kernel's own ghost view of the root it issued,
//   * a 2-entry token table living in the secure region,
//   * one satp (root, S bit, and a ghost "bound" flag meaning "this root
//     was issued by the kernel to the process now running").
//
// Transitions are the kernel protocol ops of src/kernel/protocol.h
// (alloc_pt / free_pt / copy_mm=spawn / switch_mm / exit_mm / grow)
// interleaved with the §III attacker primitives: arbitrary writes outside
// the secure region, PCB pointer redirection, token forgery, allocator
// free-list corruption, and — behind an explicit gadget gate — a direct
// satp write.
//
// Checked properties (the machine-checked form of §V-E's prose arguments):
//   P1  the page-table walker never consumes an attacker-controlled PTE
//       from outside the secure region,
//   P2  satp never carries a root the kernel did not issue to the
//       running process,
//   P3  no two live tokens alias the same page table,
//   P4  no page-table page is placed with non-zero (stale or attacker)
//       content — freed PT pages are zeroed before reuse.
//
// SMP extension: with ModelConfig::nharts == 2 the state gains a second
// satp (hart 1), the alphabet gains hart-1 interleavings of switch_mm and
// user_access, and exit_mm models the cross-hart TLB-shootdown protocol —
// with IPIs on, a remote hart parked on the dying root is repointed at the
// kernel space (leave_mm); with the sabotage knob (ipi = false) its satp
// goes stale, and a later user access through the recycled root is the P2
// breach the shootdown exists to prevent. nharts == 1 reproduces the
// historical model bit-for-bit.
//
// The checker is a level-by-level BFS over packed 58-bit states; one
// open-addressed table keyed by the packed state is both the visited set and
// the BFS tree (each state's parent edge), so every counterexample is
// shortest-first. A level is a vector of packed keys alone: State::unpack()
// rebuilds a state when it is expanded. Each level is cut into fixed blocks
// of frontier states, and each hardware thread expands one block at a time
// against the table, which stays read-only while they run: a worker keeps
// the successors the table does not hold yet, plus every violating
// transition, with its position in the block. The calling thread then merges
// the blocks in frontier order and takes each kept successor and violation
// exactly as a single-threaded BFS would meet them: it records
// counterexamples, stops early, probes, caps and fills the table. A
// successor a worker dropped was already visited, which the serial loop
// would also have skipped, so counts, truncation points and counterexamples
// do not depend on how many workers ran. Each ModelConfig defence flag
// mirrors one concrete kernel/PMP knob, which is what lets ptmc's
// counterexamples be replayed against the real System:
// src/harness/ptmc_replay.h lowers each step onto the campaign engine's ops
// (src/harness/campaign.h) and runs them there.
//
// Soundness caveat: this is a *bounded* result. "No violation" means no
// violation within max_depth/max_states over this abstraction — see
// docs/ANALYSIS.md for what the bound does and does not imply.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace ptstore::analysis::ptmc {

inline constexpr unsigned kNumPages = 4;
inline constexpr unsigned kNumProcs = 2;
/// "No page" sentinel for every 3-bit page field.
inline constexpr u8 kNoPage = 0x7;

enum class PageStatus : u8 { kFree = 0, kPt = 1 };
enum class PageContent : u8 { kZero = 0, kPtData = 1, kAttacker = 2 };

/// What a PCB's token-pointer field references. Slot i is the token-table
/// entry the kernel issued to process i; kFake is an attacker-crafted
/// token image materialised in normal memory (page 0).
enum class TokenRef : u8 { kNone = 0, kSlot0 = 1, kSlot1 = 2, kFake = 3 };

struct PageState {
  PageStatus status = PageStatus::kFree;
  PageContent content = PageContent::kZero;

  bool operator==(const PageState&) const = default;
};

struct ProcState {
  bool live = false;
  u8 pgd = kNoPage;        ///< PCB page-table pointer (attacker-writable).
  TokenRef token = TokenRef::kNone;  ///< PCB token pointer (attacker-writable).
  u8 ghost_root = kNoPage; ///< Root the kernel actually issued (ghost state).
  u8 extra_pt = kNoPage;   ///< One optional extra PT page (alloc_pt/free_pt).

  bool operator==(const ProcState&) const = default;
};

struct TokenState {
  bool live = false;
  u8 pt_page = 0;  ///< Page table this token binds (canonical 0 when dead).

  bool operator==(const TokenState&) const = default;
};

struct SatpState {
  u8 root = kNoPage;  ///< kNoPage = kernel address space (no user root).
  bool s = false;     ///< satp.S — PTW secure check armed.
  bool bound = true;  ///< Ghost: root was issued to the running process.

  bool operator==(const SatpState&) const = default;
};

struct State {
  u8 boundary = 2;  ///< Page i is secure iff i >= boundary (1 or 2).
  PageState pages[kNumPages];
  ProcState procs[kNumProcs];
  TokenState tokens[kNumProcs];
  SatpState satp;
  /// Hart 1's satp (SMP extension). Constant at its initial value when
  /// ModelConfig::nharts == 1, so single-hart packing/dedup is unchanged.
  /// `bound == false` additionally marks a *stale* root: the address space
  /// was retired but no shootdown IPI reached this hart.
  SatpState satp1;
  u8 forced_alloc = kNoPage;  ///< Corrupted free list: next PT alloc target.

  /// Canonical 58-bit packing — the BFS dedup key (53 historical bits plus
  /// hart 1's satp at [53..57]).
  u64 pack() const;
  /// The inverse of pack(): unpack(s.pack()) == s for every state.
  static State unpack(u64 key);
  static State initial();

  bool operator==(const State&) const = default;

  SatpState& satp_of(unsigned hart) { return hart == 0 ? satp : satp1; }
  const SatpState& satp_of(unsigned hart) const {
    return hart == 0 ? satp : satp1;
  }
};

inline bool is_secure(const State& s, u8 page) { return page >= s.boundary; }

// ---------------------------------------------------------------------------
// Properties.

inline constexpr u8 kP1 = 1u << 0;
inline constexpr u8 kP2 = 1u << 1;
inline constexpr u8 kP3 = 1u << 2;
inline constexpr u8 kP4 = 1u << 3;
inline constexpr u8 kAllProps = kP1 | kP2 | kP3 | kP4;
inline constexpr unsigned kNumProps = 4;

/// "P1".."P4" for prop index 0..3.
const char* prop_name(unsigned idx);
/// One-line statement of the property.
const char* prop_text(unsigned idx);

// ---------------------------------------------------------------------------
// Operations.

enum class OpKind : u8 {
  // Kernel protocol ops (src/kernel/protocol.h).
  kSpawn,        ///< copy_mm: create process a (allocates + tokenises a root).
  kExitMm,       ///< exit_mm: reap process a (frees + zeroes its PT pages).
  kSwitchMm,     ///< switch_mm: schedule process a (token check, satp write).
  kAllocPt,      ///< alloc_pt: grow process a's tables by one PT page.
  kFreePt,       ///< free_pt: release that page again.
  kGrow,         ///< Secure-region growth: boundary moves down one page.
  kUserAccess,   ///< A user access drives the PTW over the current satp.
  // Attacker primitives (src/attacks/primitive.h threat model).
  kAtkWritePage,         ///< Arbitrary regular write into page a.
  kAtkRedirectPgd,       ///< PCB write: proc a's pgd := page b.
  kAtkRedirectToken,     ///< PCB write: proc a's token pointer := TokenRef b.
  kAtkForgeToken,        ///< Regular write into token slot a: bind page b.
  kAtkCorruptAllocator,  ///< Free-list corruption: next PT alloc := page a.
  kAtkSatpWrite,         ///< csr-write gadget (gated): satp := page a, S=0.
};

struct Op {
  OpKind kind = OpKind::kUserAccess;
  u8 a = 0;
  u8 b = 0;
  u8 hart = 0;  ///< Executing hart (only switch_mm/user_access run on hart 1).
};

/// The fixed 48-op alphabet (every kind × operand combination). Op IDs are
/// indices into this vector and are append-only (pinned by a golden test):
/// saved counterexamples and seeds must replay identically across versions.
const std::vector<Op>& all_ops();

/// The 51-op SMP alphabet: all_ops() (IDs 0..47, hart 0) plus hart-1
/// interleavings appended at IDs 48..50 — switch_mm(p0)@h1, switch_mm(p1)@h1,
/// user_access@h1. Used when ModelConfig::nharts >= 2.
const std::vector<Op>& all_ops_smp();

/// Human-readable rendering, e.g. "switch_mm(p1)" or "atk: pcb[0].pgd = page3";
/// hart-1 ops get an "@h1" suffix.
std::string describe(const Op& op);
/// Compact state rendering for traces and DOT labels.
std::string describe(const State& s);

// ---------------------------------------------------------------------------
// Model configuration: each defence flag mirrors one concrete knob.

struct ModelConfig {
  bool s_bit = true;       ///< PMP S-bit enforcement (PmpUnit::set_secure_enforcement).
  bool ptw_check = true;   ///< satp.S walker check (KernelConfig::ptw_check).
  bool token_check = true; ///< switch_mm token validation (KernelConfig::token_check).
  bool zero_check = true;  ///< §V-E3 all-zero check (KernelConfig::zero_check).
  bool csr_gadget = false; ///< Attacker owns a satp-write gadget (off: §III model).
  bool allow_grow = true;  ///< Secure-region growth enabled.
  u32 max_depth = 16;        ///< BFS depth bound (full closure needs 14).
  u64 max_states = 600'000;  ///< Visited-state budget (closure is ~254k).
  u8 stop_after_violated = 0;  ///< Stop early once these props are violated.

  // ---- SMP extension. nharts == 1 reproduces the historical single-hart
  // transition system bit-for-bit (alphabet, packing, counts). ----
  unsigned nharts = 1;  ///< Model harts: 1 or 2 (check() rejects others).
  bool ipi = true;      ///< retire_mm sends shootdown IPIs; off = the
                        ///< skip_shootdown_ipi sabotage knob, leaving remote
                        ///< harts parked on stale roots.
  // ---- Backend capability knobs (for modelling DPTI/PTAuth; the PTStore
  // defaults leave both off). ----
  bool verify_on_walk = false;    ///< Walker authenticates every PTE fetched
                                  ///< (PTAuth): attacker PTEs fault instead
                                  ///< of being consumed.
  bool cred_unforgeable = false;  ///< Credentials can't be fabricated from
                                  ///< normal memory (DPTI's registry, PTAuth's
                                  ///< keyed MAC): forge/fake ops are inert.
};

/// One transition: op applied to a state either has no successor (the op is
/// disabled or a defence architecturally blocked it) or yields exactly one.
struct Successor {
  State next;
  u8 violations = 0;  ///< Props this transition violates (kP1..kP4 mask).
};

/// With `note`, also says what happened, for traces (empty when the op has
/// no successor). The BFS passes none: it never reads them.
std::optional<Successor> apply(const State& s, const Op& op,
                               const ModelConfig& cfg,
                               std::string* note = nullptr);

// ---------------------------------------------------------------------------
// Checking.

struct Step {
  Op op;
  State after;
  std::string note;
  u8 violations = 0;
};

struct Counterexample {
  unsigned prop = 0;  ///< Violated property index 0..3.
  ModelConfig cfg;    ///< Configuration it was found under.
  std::vector<Step> steps;  ///< Shortest op sequence from State::initial().
};

struct CheckResult {
  u8 props_checked = kAllProps;
  u8 props_violated = 0;
  bool complete = false;     ///< Reachable closure exhausted within bounds.
  bool depth_capped = false; ///< Frontier truncated at max_depth.
  bool state_capped = false; ///< Visited budget exhausted.
  bool early_stopped = false;  ///< stop_after_violated triggered.
  u64 states = 0;        ///< Distinct states visited.
  u64 transitions = 0;   ///< Successor-producing op applications.
  u32 depth = 0;         ///< Deepest level reached.
  /// First (= shortest) counterexample per violated property.
  std::vector<Counterexample> counterexamples;

  bool ok() const { return props_violated == 0; }
  const Counterexample* counterexample_for(unsigned prop_idx) const;
  std::string format() const;
};

/// BFS over the reachable states of `cfg`'s transition system, expanding
/// each level on worker_count() threads. Throws std::invalid_argument unless
/// cfg.nharts is 1 or 2.
CheckResult check(const ModelConfig& cfg);

/// Threads check() expands a level on: one per hardware thread.
unsigned worker_count();

// ---------------------------------------------------------------------------
// Mutation matrix: for each defence, the *minimal* set of knobs to disable
// so that exactly the targeted property becomes violable. PTStore's defences
// overlap (defence-in-depth), so some single-knob mutations break nothing —
// the matrix encodes the minimal sets plus that depth assertion.

struct MutationEntry {
  const char* name;    ///< CLI name: "ptw", "token", "sbit", "zero", "ptw-alone".
  ModelConfig cfg;
  u8 must_break;       ///< Props that MUST be violated under this mutation.
  u8 may_also_break;   ///< Collateral violations that are expected and sound.
  const char* rationale;
};

/// The matrix derived from `base` (bounds and gadget flag are inherited).
std::vector<MutationEntry> mutation_matrix(const ModelConfig& base);

// ---------------------------------------------------------------------------
// Export.

/// Counterexample as a GraphViz digraph (one node per state along the trace).
std::string to_dot(const Counterexample& ce);
/// CheckResult (including counterexample traces) as a JSON document.
std::string to_json(const CheckResult& r);

}  // namespace ptstore::analysis::ptmc
