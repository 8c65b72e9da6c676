// Exact (non-sampled) call-stack profiler: a pure observer that maintains a
// shadow call stack per privilege level and accumulates self + inclusive
// cycles per function and per call edge online, in a trie of
// (parent, frame) nodes. Like the EventRing, no call site ever charges
// cycles for it — simulated timing with profiling enabled is bit-identical
// to profiling disabled (asserted by tests/integration/telemetry_test.cpp).
// It is the repo's one cycle-attribution engine: the flat per-subsystem and
// per-privilege table (CycleProfile) is a rollup of its trees.
//
// Event sources:
//   - guest call/ret observed at retire in the core (jal/jalr with the RISC-V
//     link-register convention: rd in {ra, t0} is a call, `jalr x0, ra/t0` a
//     return), symbolized against registered symbol tables at snapshot time;
//   - kernel-model spans (ScopedSpan in trace.h pushes/pops a frame when a
//     profiler is active) and explicit ProfScope markers on backend
//     mediation paths (MAC sign/verify, domain flush, token check), so the
//     cost of inlined defense code is attributable by name;
//   - the MMU walker ("ptw", with a "ptw_verify" child sized by the
//     walk-time verifier's charged cycles).
//
// Each event charges the interval [mark, now) to the innermost open frame
// of the privilege level that was current when the interval started, so
// per-frame self cycles sum exactly to the session total. Per-privilege
// pseudo-roots ("[U]", "[S]", "[M]") absorb time with no frame open — their
// share is the "unknown" bucket the differential attribution gate bounds.
//
// Every trie node carries a Subsystem: ScopedSpan frames and the walker's
// "ptw" name theirs, pseudo-roots are kOther, and every other frame
// (ProfScope markers, "ptw_verify", guest calls) inherits its parent's.
//
// The canonical exchange format is the folded-stack map (flamegraph.pl
// compatible): "label;[P];caller;callee" -> {cycles, count}, an ordered map
// so merge (sum by key) is commutative and byte-identical across shard
// orderings — the property the fleet harness's jobs-invariance check pins.
//
// The profiler handle is thread-local: fleet workers profile their own
// shards concurrently without sharing state.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ptstore::telemetry {

inline constexpr size_t kPrivilegeCount = 4;  ///< Privilege encodings 0..3.

enum class Subsystem : u8 {
  kTrap = 0,      ///< Trap/interrupt entry-exit and page-fault handling.
  kSyscall,       ///< Kernel syscall layer (by Sys).
  kSwitchMm,      ///< Context switch: switch_mm + satp write.
  kToken,         ///< PTStore token validation.
  kPtw,           ///< Hardware page-table walks.
  kPtInsn,        ///< ld.pt/sd.pt secure-region accesses.
  kSecureRegion,  ///< Secure-region growth (adjustment).
  kBBCache,       ///< Decoded-block cache fills/evictions (host-side).
  kOther,         ///< Everything outside an instrumented span.
};
inline constexpr size_t kSubsystemCount = 9;

const char* to_string(Subsystem s);

/// Flat cycle-attribution profile, rolled up from the Profiler's trees.
/// self_cycles[s] is the self time of every node tagged `s`; priv_cycles[p]
/// that of every node under privilege root p. Both sum to total_cycles.
struct CycleProfile {
  std::array<u64, kSubsystemCount> self_cycles{};
  std::array<u64, kPrivilegeCount> priv_cycles{};
  u64 total_cycles = 0;

  u64 attributed() const {
    u64 sum = 0;
    for (const u64 c : self_cycles) sum += c;
    return sum;
  }
};

/// Render the "where do the cycles go" table: self-cycles per subsystem
/// (descending, with percentages) and per privilege, each summing exactly to
/// the total session cycles.
std::string render_profile(const CycleProfile& prof);

// ---- Folded profile: the canonical serialized form ----

struct FoldedEntry {
  u64 cycles = 0;  ///< Self cycles with this exact stack innermost.
  u64 count = 0;   ///< Times this exact stack was entered.
};

struct FoldedProfile {
  /// "label;[P];f1;f2" -> entry. Ordered, so iteration and serialization
  /// are deterministic and merge is order-independent.
  std::map<std::string, FoldedEntry> stacks;
  u64 total_cycles = 0;
  u64 truncated_frames = 0;  ///< Frames dropped at the depth cap.

  bool empty() const { return stacks.empty(); }
  /// Entries whose first frame is `label` (session labels are the
  /// workload-config names the driver brackets runs with).
  FoldedProfile filter_label(std::string_view label) const;
};

/// Pointwise sum: `into += from`. Commutative and associative by key, which
/// makes the 64-shard campaign merge jobs-invariant.
void merge_folded(FoldedProfile& into, const FoldedProfile& from);

/// "stack cycles" lines, flamegraph.pl-compatible, sorted by stack.
void write_folded(std::ostream& os, const FoldedProfile& p);

/// Versioned JSON: {"schema": "ptstore.profile.v1", "total_cycles": N,
/// "truncated_frames": N, "stacks": [{"stack","cycles","count"}...]}.
void write_profile_json(std::ostream& os, const FoldedProfile& p);
std::string profile_json(const FoldedProfile& p);
std::optional<FoldedProfile> parse_profile_json(std::string_view text);

// ---- Derived views ----

struct FunctionRow {
  std::string name;
  u64 self_cycles = 0;
  u64 incl_cycles = 0;  ///< Cycles with this frame anywhere on the stack.
  u64 calls = 0;        ///< Entry count summed over stacks it terminates.
};

/// Per-function aggregation, sorted self-cycles descending then name
/// ascending (fully deterministic under ties).
std::vector<FunctionRow> function_table(const FoldedProfile& p);

struct CallEdge {
  std::string caller;
  std::string callee;
  u64 cycles = 0;  ///< Callee self cycles under this caller.
  u64 count = 0;
};

/// (caller, callee) pairs from adjacent folded frames, sorted cycles
/// descending then caller/callee ascending.
std::vector<CallEdge> call_edges(const FoldedProfile& p);

std::string render_function_table(const FoldedProfile& p, size_t top_n = 0);

// ---- Differential attribution ----

struct DiffRow {
  std::string name;
  u64 self_a = 0;
  u64 self_b = 0;
  i64 delta = 0;  ///< self_b - self_a.
};

struct ProfileDiff {
  /// Union of functions, ranked |delta| descending then name ascending.
  std::vector<DiffRow> rows;
  i64 total_delta = 0;  ///< b.total_cycles - a.total_cycles.
  /// Share of total_delta explained by *named* frames — pseudo-roots
  /// ("[U]"...) and unresolved "guest_0x..." frames count against it.
  /// 100 when total_delta == 0. Clamped to [0, 100].
  double attributed_pct = 100.0;
};

/// True for the frames the attribution gate treats as "unknown": privilege
/// pseudo-roots and unsymbolized guest addresses.
bool is_unattributed_frame(std::string_view name);

ProfileDiff diff_profiles(const FoldedProfile& a, const FoldedProfile& b);

std::string render_diff(const ProfileDiff& d, std::string_view name_a,
                        std::string_view name_b, size_t top_n = 0);

/// Emit the diff into an open JsonWriter-compatible stream as one object
/// (used to embed attribution tables in schema-v1 reports).
void write_diff_json(std::ostream& os, const ProfileDiff& d,
                     std::string_view name_a, std::string_view name_b);

// ---- The online profiler ----

class Profiler {
 public:
  Profiler();

  /// Bracket one simulated machine's run; `label` becomes the first folded
  /// frame (the driver uses its config labels: "base", "cfi", ...).
  /// Re-entering a label accumulates into the same tree. An open session is
  /// closed first.
  void session_begin(std::string_view label, u64 cycles, u8 priv);
  void session_end(u64 cycles);
  bool in_session() const { return in_session_; }

  /// Kernel-model frames. `name` must be a static string. A frame pushed
  /// without a subsystem inherits its parent's.
  void push(const char* name, Subsystem sub, u64 cycles, u8 priv);
  void push(const char* name, u64 cycles, u8 priv);
  void pop(u64 cycles, u8 priv);

  /// Guest call/ret observed at retire. `target_pc` is the callee entry,
  /// symbolized at snapshot time against add_symbol() registrations.
  void on_call(u64 target_pc, u64 cycles, u8 priv);
  void on_ret(u64 cycles, u8 priv);

  /// Address-space switch: the U-mode shadow stack belongs to one process,
  /// so the kernel banks the outgoing stack under `mm_id` (pid) and
  /// restores the incoming one (fresh at first sight).
  void on_context_switch(u64 mm_id, u64 cycles, u8 priv);

  /// Register a guest symbol (function entry address -> name).
  void add_symbol(u64 addr, std::string name);

  u64 truncated_frames() const { return truncated_; }

  /// Fold every label tree into the canonical exchange form. Guest frames
  /// resolve to their symbol, or "guest_0x..." when unregistered.
  FoldedProfile snapshot() const;

  /// Roll every label tree up by subsystem and by privilege root.
  CycleProfile cycle_profile() const;

  void clear();

  static constexpr size_t kMaxDepth = 128;

 private:
  struct Frame {
    std::string name;   ///< Kernel frame name (empty for guest frames).
    u64 guest_addr = 0;
    bool is_guest = false;
  };
  struct Node {
    u32 frame = 0;
    i32 parent = -1;
    u64 self = 0;
    u64 count = 0;
    Subsystem sub = Subsystem::kOther;
    std::map<u32, u32> children;  ///< frame id -> node index.
  };
  struct Tree {
    std::vector<Node> nodes;
    std::array<u32, kPrivilegeCount> roots{};
    u64 total = 0;
  };

  u32 intern(const char* name);
  u32 intern_guest(u64 addr);
  /// The child of `parent` for `frame`; a new node is tagged `sub`, or its
  /// parent's subsystem when `sub` is empty.
  u32 child_node(Tree& t, u32 parent, u32 frame, std::optional<Subsystem> sub);
  void push_frame(u32 frame, std::optional<Subsystem> sub, u64 cycles, u8 priv);
  /// Charge [mark_, now) to the innermost frame of cur_priv_, then make
  /// `priv` current.
  void attribute(u64 now, u8 priv);
  std::string frame_name(u32 f) const;

  std::vector<Frame> frames_;
  std::map<std::string, u32, std::less<>> frame_by_name_;
  std::map<u64, u32> frame_by_addr_;
  std::map<u64, std::string> symbols_;

  std::map<std::string, Tree, std::less<>> trees_;

  bool in_session_ = false;
  Tree* cur_ = nullptr;
  u64 session_start_ = 0;
  u64 mark_ = 0;
  u8 cur_priv_ = 3;
  std::array<std::vector<u32>, kPrivilegeCount> stack_;
  /// Frames refused at the depth cap per privilege; the matching pop/ret is
  /// swallowed so the stack stays aligned.
  std::array<u64, kPrivilegeCount> skipped_{};
  /// Banked U-mode stacks of switched-out address spaces (per session).
  std::map<u64, std::vector<u32>> user_stacks_;
  u64 cur_mm_ = 0;
  u64 truncated_ = 0;
};

// ---- Thread-local profiler session ----
//
// profiling() returns nullptr while disabled (the default); instrumentation
// sites cost one thread-local load + branch. Thread-local (unlike the
// process-wide EventRing) because fleet workers profile concurrent shards.

/// The active profiler on this thread, or nullptr.
Profiler* profiling();

/// Enable profiling on this thread with a fresh profiler; returns it.
Profiler& enable_profiling();

void disable_profiling();

/// RAII kernel-frame marker over any clock-bearing object with
/// cycles()/priv() (Core and Kernel-adjacent components). No-op while
/// profiling is disabled. Used to annotate backend mediation paths that
/// would otherwise be invisible inside their enclosing handler's span.
template <typename ClockT>
class ProfScope {
 public:
  ProfScope(ClockT& clock, const char* name)
      : clock_(clock), prof_(profiling()), name_(name) {
    if (prof_ != nullptr) {
      prof_->push(name_, clock_.cycles(), static_cast<u8>(clock_.priv()));
    }
  }
  ~ProfScope() {
    if (prof_ != nullptr) {
      prof_->pop(clock_.cycles(), static_cast<u8>(clock_.priv()));
    }
  }
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  ClockT& clock_;
  Profiler* prof_;
  const char* name_;
};

}  // namespace ptstore::telemetry
