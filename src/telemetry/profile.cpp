#include "telemetry/profile.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <sstream>

#include "telemetry/json.h"

namespace ptstore::telemetry {

namespace {

const char* root_frame_name(size_t priv) {
  switch (priv) {
    case 0: return "[U]";
    case 1: return "[S]";
    case 3: return "[M]";
  }
  return "[?]";
}

/// Frame names become folded-stack tokens: the separators (';' for frames,
/// ' ' for the cycle column) must not appear inside one.
std::string sanitize_frame(std::string s) {
  for (char& c : s) {
    if (c == ';' || c == ' ' || c == '\n' || c == '\t') c = '_';
  }
  return s;
}

std::vector<std::string_view> split_stack(std::string_view key) {
  std::vector<std::string_view> out;
  size_t pos = 0;
  while (pos <= key.size()) {
    const size_t semi = key.find(';', pos);
    if (semi == std::string_view::npos) {
      out.push_back(key.substr(pos));
      break;
    }
    out.push_back(key.substr(pos, semi - pos));
    pos = semi + 1;
  }
  return out;
}

}  // namespace

const char* to_string(Subsystem s) {
  switch (s) {
    case Subsystem::kTrap: return "trap";
    case Subsystem::kSyscall: return "syscall";
    case Subsystem::kSwitchMm: return "switch_mm";
    case Subsystem::kToken: return "token";
    case Subsystem::kPtw: return "ptw";
    case Subsystem::kPtInsn: return "pt_insn";
    case Subsystem::kSecureRegion: return "secure_region";
    case Subsystem::kBBCache: return "bbcache";
    case Subsystem::kOther: return "other";
  }
  return "?";
}

std::string render_profile(const CycleProfile& prof) {
  std::ostringstream os;
  char line[128];

  struct Row {
    Subsystem sub;
    u64 cycles;
  };
  std::vector<Row> rows;
  for (size_t i = 0; i < kSubsystemCount; ++i) {
    rows.push_back(Row{static_cast<Subsystem>(i), prof.self_cycles[i]});
  }
  // Tie-break on the subsystem id: std::sort is unstable, so equal-cycle
  // subsystems would otherwise swap between runs of an identical simulation.
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.cycles != b.cycles) return a.cycles > b.cycles;
    return a.sub < b.sub;
  });

  const double total =
      prof.total_cycles == 0 ? 1.0 : static_cast<double>(prof.total_cycles);
  os << "cycle attribution (self-cycles by subsystem)\n";
  std::snprintf(line, sizeof line, "  %-14s %16s %8s\n", "subsystem", "cycles", "%");
  os << line;
  u64 sum = 0;
  for (const Row& r : rows) {
    if (r.cycles == 0) continue;
    sum += r.cycles;
    std::snprintf(line, sizeof line, "  %-14s %16llu %7.2f%%\n", to_string(r.sub),
                  static_cast<unsigned long long>(r.cycles),
                  100.0 * static_cast<double>(r.cycles) / total);
    os << line;
  }
  std::snprintf(line, sizeof line, "  %-14s %16llu %7.2f%%\n", "TOTAL",
                static_cast<unsigned long long>(sum),
                100.0 * static_cast<double>(sum) / total);
  os << line;

  os << "\ncycles by privilege\n";
  static constexpr const char* kPrivNames[kPrivilegeCount] = {"U-mode", "S-mode",
                                                              "(res)", "M-mode"};
  for (size_t p = 0; p < kPrivilegeCount; ++p) {
    if (prof.priv_cycles[p] == 0) continue;
    std::snprintf(line, sizeof line, "  %-14s %16llu %7.2f%%\n", kPrivNames[p],
                  static_cast<unsigned long long>(prof.priv_cycles[p]),
                  100.0 * static_cast<double>(prof.priv_cycles[p]) / total);
    os << line;
  }
  std::snprintf(line, sizeof line, "  %-14s %16llu\n", "total cycles",
                static_cast<unsigned long long>(prof.total_cycles));
  os << line;
  return os.str();
}

// ---- FoldedProfile ----

FoldedProfile FoldedProfile::filter_label(std::string_view label) const {
  FoldedProfile out;
  out.truncated_frames = truncated_frames;
  std::string prefix(label);
  prefix += ';';
  for (const auto& [key, entry] : stacks) {
    if (key.size() > prefix.size() && key.compare(0, prefix.size(), prefix) == 0) {
      out.stacks.emplace(key, entry);
      out.total_cycles += entry.cycles;
    }
  }
  return out;
}

void merge_folded(FoldedProfile& into, const FoldedProfile& from) {
  for (const auto& [key, entry] : from.stacks) {
    FoldedEntry& e = into.stacks[key];
    e.cycles += entry.cycles;
    e.count += entry.count;
  }
  into.total_cycles += from.total_cycles;
  into.truncated_frames += from.truncated_frames;
}

void write_folded(std::ostream& os, const FoldedProfile& p) {
  for (const auto& [key, entry] : p.stacks) {
    os << key << ' ' << entry.cycles << '\n';
  }
}

void write_profile_json(std::ostream& os, const FoldedProfile& p) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "ptstore.profile.v1");
  w.kv("total_cycles", p.total_cycles);
  w.kv("truncated_frames", p.truncated_frames);
  w.key("stacks").begin_array();
  for (const auto& [key, entry] : p.stacks) {
    w.begin_object();
    w.kv("stack", key);
    w.kv("cycles", entry.cycles);
    w.kv("count", entry.count);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

std::string profile_json(const FoldedProfile& p) {
  std::ostringstream os;
  write_profile_json(os, p);
  return os.str();
}

std::optional<FoldedProfile> parse_profile_json(std::string_view text) {
  const std::optional<JsonValue> doc = json_parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const JsonValue* schema = doc->find("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::kString ||
      schema->str != "ptstore.profile.v1") {
    return std::nullopt;
  }
  FoldedProfile p;
  if (const JsonValue* v = doc->find("total_cycles")) {
    p.total_cycles = static_cast<u64>(v->number);
  }
  if (const JsonValue* v = doc->find("truncated_frames")) {
    p.truncated_frames = static_cast<u64>(v->number);
  }
  const JsonValue* stacks = doc->find("stacks");
  if (stacks == nullptr || !stacks->is_array()) return std::nullopt;
  for (const JsonValue& item : stacks->arr) {
    const JsonValue* stack = item.find("stack");
    const JsonValue* cycles = item.find("cycles");
    if (stack == nullptr || stack->kind != JsonValue::Kind::kString ||
        cycles == nullptr) {
      return std::nullopt;
    }
    FoldedEntry& e = p.stacks[stack->str];
    e.cycles += static_cast<u64>(cycles->number);
    if (const JsonValue* count = item.find("count")) {
      e.count += static_cast<u64>(count->number);
    }
  }
  return p;
}

// ---- Derived views ----

std::vector<FunctionRow> function_table(const FoldedProfile& p) {
  std::map<std::string, FunctionRow, std::less<>> by_name;
  for (const auto& [key, entry] : p.stacks) {
    const std::vector<std::string_view> frames = split_stack(key);
    if (frames.empty()) continue;
    const std::string_view leaf = frames.back();
    FunctionRow& row = by_name[std::string(leaf)];
    row.self_cycles += entry.cycles;
    row.calls += entry.count;
    // Inclusive: charge each *distinct* frame on the stack once, so
    // recursion does not double-count.
    std::set<std::string_view> seen(frames.begin(), frames.end());
    for (const std::string_view f : seen) {
      by_name[std::string(f)].incl_cycles += entry.cycles;
    }
  }
  std::vector<FunctionRow> rows;
  rows.reserve(by_name.size());
  for (auto& [name, row] : by_name) {
    row.name = name;
    rows.push_back(std::move(row));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const FunctionRow& a, const FunctionRow& b) {
                     if (a.self_cycles != b.self_cycles) {
                       return a.self_cycles > b.self_cycles;
                     }
                     return a.name < b.name;
                   });
  return rows;
}

std::vector<CallEdge> call_edges(const FoldedProfile& p) {
  std::map<std::pair<std::string, std::string>, CallEdge> by_pair;
  for (const auto& [key, entry] : p.stacks) {
    const std::vector<std::string_view> frames = split_stack(key);
    if (frames.size() < 2) continue;
    const std::string_view caller = frames[frames.size() - 2];
    const std::string_view callee = frames.back();
    CallEdge& e = by_pair[{std::string(caller), std::string(callee)}];
    e.cycles += entry.cycles;
    e.count += entry.count;
  }
  std::vector<CallEdge> edges;
  edges.reserve(by_pair.size());
  for (auto& [pair, e] : by_pair) {
    e.caller = pair.first;
    e.callee = pair.second;
    edges.push_back(std::move(e));
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const CallEdge& a, const CallEdge& b) {
                     if (a.cycles != b.cycles) return a.cycles > b.cycles;
                     if (a.caller != b.caller) return a.caller < b.caller;
                     return a.callee < b.callee;
                   });
  return edges;
}

std::string render_function_table(const FoldedProfile& p, size_t top_n) {
  std::vector<FunctionRow> rows = function_table(p);
  if (top_n != 0 && rows.size() > top_n) rows.resize(top_n);
  std::ostringstream os;
  char line[160];
  const double total =
      p.total_cycles == 0 ? 1.0 : static_cast<double>(p.total_cycles);
  std::snprintf(line, sizeof line, "  %-32s %14s %14s %10s %7s\n", "function",
                "self", "incl", "calls", "self%");
  os << line;
  for (const FunctionRow& r : rows) {
    std::snprintf(line, sizeof line, "  %-32s %14llu %14llu %10llu %6.2f%%\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.self_cycles),
                  static_cast<unsigned long long>(r.incl_cycles),
                  static_cast<unsigned long long>(r.calls),
                  100.0 * static_cast<double>(r.self_cycles) / total);
    os << line;
  }
  std::snprintf(line, sizeof line, "  total: %llu cycles, %zu functions\n",
                static_cast<unsigned long long>(p.total_cycles), rows.size());
  os << line;
  return os.str();
}

// ---- Differential attribution ----

bool is_unattributed_frame(std::string_view name) {
  if (!name.empty() && name.front() == '[') return true;
  return name.rfind("guest_0x", 0) == 0;
}

ProfileDiff diff_profiles(const FoldedProfile& a, const FoldedProfile& b) {
  std::map<std::string, DiffRow, std::less<>> by_name;
  for (const FunctionRow& r : function_table(a)) {
    by_name[r.name].self_a = r.self_cycles;
  }
  for (const FunctionRow& r : function_table(b)) {
    by_name[r.name].self_b = r.self_cycles;
  }

  ProfileDiff d;
  d.total_delta =
      static_cast<i64>(b.total_cycles) - static_cast<i64>(a.total_cycles);
  i64 unattributed_delta = 0;
  for (auto& [name, row] : by_name) {
    row.name = name;
    row.delta = static_cast<i64>(row.self_b) - static_cast<i64>(row.self_a);
    if (is_unattributed_frame(name)) unattributed_delta += row.delta;
    d.rows.push_back(row);
  }
  std::stable_sort(d.rows.begin(), d.rows.end(),
                   [](const DiffRow& x, const DiffRow& y) {
                     const i64 ax = x.delta < 0 ? -x.delta : x.delta;
                     const i64 ay = y.delta < 0 ? -y.delta : y.delta;
                     if (ax != ay) return ax > ay;
                     return x.name < y.name;
                   });

  if (d.total_delta == 0) {
    d.attributed_pct = unattributed_delta == 0 ? 100.0 : 0.0;
  } else {
    const double pct = 100.0 *
                       static_cast<double>(d.total_delta - unattributed_delta) /
                       static_cast<double>(d.total_delta);
    d.attributed_pct = std::clamp(pct, 0.0, 100.0);
  }
  return d;
}

std::string render_diff(const ProfileDiff& d, std::string_view name_a,
                        std::string_view name_b, size_t top_n) {
  std::ostringstream os;
  char line[192];
  std::snprintf(line, sizeof line,
                "overhead attribution: %.*s -> %.*s (total delta %+lld cycles, "
                "%.1f%% attributed to named functions)\n",
                static_cast<int>(name_a.size()), name_a.data(),
                static_cast<int>(name_b.size()), name_b.data(),
                static_cast<long long>(d.total_delta), d.attributed_pct);
  os << line;
  std::snprintf(line, sizeof line, "  %-32s %14s %14s %14s\n", "function",
                std::string(name_a).c_str(), std::string(name_b).c_str(),
                "delta");
  os << line;
  size_t shown = 0;
  for (const DiffRow& r : d.rows) {
    if (r.delta == 0) continue;
    if (top_n != 0 && shown >= top_n) break;
    std::snprintf(line, sizeof line, "  %-32s %14llu %14llu %+14lld\n",
                  r.name.c_str(), static_cast<unsigned long long>(r.self_a),
                  static_cast<unsigned long long>(r.self_b),
                  static_cast<long long>(r.delta));
    os << line;
    ++shown;
  }
  if (shown == 0) os << "  (no per-function deltas)\n";
  return os.str();
}

void write_diff_json(std::ostream& os, const ProfileDiff& d,
                     std::string_view name_a, std::string_view name_b) {
  JsonWriter w(os);
  w.begin_object();
  w.kv("schema", "ptstore.profile_diff.v1");
  w.kv("profile_a", name_a);
  w.kv("profile_b", name_b);
  w.key("total_delta_cycles").value_i64(d.total_delta);
  w.kv("attributed_pct", d.attributed_pct);
  w.key("rows").begin_array();
  for (const DiffRow& r : d.rows) {
    if (r.delta == 0) continue;
    w.begin_object();
    w.kv("function", r.name);
    w.kv("self_a", r.self_a);
    w.kv("self_b", r.self_b);
    w.key("delta").value_i64(r.delta);
    w.kv("unattributed", is_unattributed_frame(r.name));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

// ---- Profiler ----

Profiler::Profiler() { frames_.reserve(64); }

u32 Profiler::intern(const char* name) {
  const auto it = frame_by_name_.find(std::string_view(name));
  if (it != frame_by_name_.end()) return it->second;
  const u32 id = static_cast<u32>(frames_.size());
  frames_.push_back(Frame{name, 0, false});
  frame_by_name_.emplace(name, id);
  return id;
}

u32 Profiler::intern_guest(u64 addr) {
  const auto it = frame_by_addr_.find(addr);
  if (it != frame_by_addr_.end()) return it->second;
  const u32 id = static_cast<u32>(frames_.size());
  frames_.push_back(Frame{{}, addr, true});
  frame_by_addr_.emplace(addr, id);
  return id;
}

u32 Profiler::child_node(Tree& t, u32 parent, u32 frame,
                         std::optional<Subsystem> sub) {
  Node& p = t.nodes[parent];
  const auto it = p.children.find(frame);
  if (it != p.children.end()) return it->second;
  const u32 idx = static_cast<u32>(t.nodes.size());
  p.children.emplace(frame, idx);
  Node n;
  n.frame = frame;
  n.parent = static_cast<i32>(parent);
  n.sub = sub.value_or(p.sub);
  t.nodes.push_back(std::move(n));
  return idx;
}

void Profiler::attribute(u64 now, u8 priv) {
  if (now > mark_) {
    cur_->nodes[stack_[cur_priv_].back()].self += now - mark_;
    mark_ = now;
  }
  cur_priv_ = static_cast<u8>(priv & 3);
}

void Profiler::session_begin(std::string_view label, u64 cycles, u8 priv) {
  if (in_session_) session_end(cycles);
  Tree& t = trees_[std::string(label)];
  if (t.nodes.empty()) {
    for (size_t p = 0; p < kPrivilegeCount; ++p) {
      Node root;
      root.frame = intern(root_frame_name(p));
      t.roots[p] = static_cast<u32>(t.nodes.size());
      t.nodes.push_back(std::move(root));
    }
  }
  cur_ = &t;
  for (size_t p = 0; p < kPrivilegeCount; ++p) {
    stack_[p].clear();
    stack_[p].push_back(t.roots[p]);
    skipped_[p] = 0;
  }
  in_session_ = true;
  session_start_ = cycles;
  mark_ = cycles;
  cur_priv_ = static_cast<u8>(priv & 3);
  user_stacks_.clear();
  cur_mm_ = 0;
  t.nodes[t.roots[cur_priv_]].count += 1;
}

void Profiler::session_end(u64 cycles) {
  if (!in_session_) return;
  attribute(cycles, cur_priv_);
  cur_->total += cycles - session_start_;
  in_session_ = false;
  cur_ = nullptr;
  for (auto& s : stack_) s.clear();
}

void Profiler::push_frame(u32 frame, std::optional<Subsystem> sub, u64 cycles,
                          u8 priv) {
  attribute(cycles, priv);
  const u8 p = static_cast<u8>(priv & 3);
  if (stack_[p].size() >= kMaxDepth) {
    skipped_[p] += 1;
    truncated_ += 1;
    return;
  }
  const u32 node = child_node(*cur_, stack_[p].back(), frame, sub);
  stack_[p].push_back(node);
  cur_->nodes[node].count += 1;
}

void Profiler::push(const char* name, Subsystem sub, u64 cycles, u8 priv) {
  if (in_session_) push_frame(intern(name), sub, cycles, priv);
}

void Profiler::push(const char* name, u64 cycles, u8 priv) {
  if (in_session_) push_frame(intern(name), std::nullopt, cycles, priv);
}

void Profiler::pop(u64 cycles, u8 priv) {
  if (!in_session_) return;
  attribute(cycles, priv);
  const u8 p = static_cast<u8>(priv & 3);
  if (skipped_[p] > 0) {
    skipped_[p] -= 1;
    return;
  }
  if (stack_[p].size() > 1) stack_[p].pop_back();
}

void Profiler::on_call(u64 target_pc, u64 cycles, u8 priv) {
  if (in_session_) push_frame(intern_guest(target_pc), std::nullopt, cycles, priv);
}

void Profiler::on_ret(u64 cycles, u8 priv) { pop(cycles, priv); }

void Profiler::on_context_switch(u64 mm_id, u64 cycles, u8 priv) {
  if (!in_session_ || mm_id == cur_mm_) return;
  attribute(cycles, priv);
  user_stacks_[cur_mm_] = std::move(stack_[0]);
  const auto it = user_stacks_.find(mm_id);
  if (it != user_stacks_.end() && !it->second.empty()) {
    stack_[0] = std::move(it->second);
    user_stacks_.erase(it);
  } else {
    stack_[0].clear();
    stack_[0].push_back(cur_->roots[0]);
  }
  skipped_[0] = 0;
  cur_mm_ = mm_id;
}

void Profiler::add_symbol(u64 addr, std::string name) {
  symbols_[addr] = std::move(name);
}

std::string Profiler::frame_name(u32 f) const {
  const Frame& fr = frames_[f];
  if (!fr.is_guest) return sanitize_frame(fr.name);
  const auto it = symbols_.find(fr.guest_addr);
  if (it != symbols_.end()) return sanitize_frame(it->second);
  char buf[32];
  std::snprintf(buf, sizeof buf, "guest_0x%llx",
                static_cast<unsigned long long>(fr.guest_addr));
  return buf;
}

FoldedProfile Profiler::snapshot() const {
  FoldedProfile out;
  out.truncated_frames = truncated_;
  for (const auto& [label, tree] : trees_) {
    out.total_cycles += tree.total;
    // Iterative DFS per privilege root, building the folded key as we go.
    struct Visit {
      u32 node;
      std::string path;
    };
    for (size_t p = 0; p < kPrivilegeCount; ++p) {
      std::vector<Visit> work;
      work.push_back(
          Visit{tree.roots[p],
                sanitize_frame(label) + ";" +
                    frame_name(tree.nodes[tree.roots[p]].frame)});
      while (!work.empty()) {
        Visit v = std::move(work.back());
        work.pop_back();
        const Node& n = tree.nodes[v.node];
        if (n.self != 0 || n.count != 0) {
          FoldedEntry& e = out.stacks[v.path];
          e.cycles += n.self;
          e.count += n.count;
        }
        for (const auto& [frame, child] : n.children) {
          work.push_back(Visit{child, v.path + ";" + frame_name(frame)});
        }
      }
    }
  }
  return out;
}

CycleProfile Profiler::cycle_profile() const {
  CycleProfile out;
  for (const auto& [label, tree] : trees_) {
    out.total_cycles += tree.total;
    for (size_t p = 0; p < kPrivilegeCount; ++p) {
      std::vector<u32> work{tree.roots[p]};
      while (!work.empty()) {
        const Node& n = tree.nodes[work.back()];
        work.pop_back();
        out.self_cycles[static_cast<size_t>(n.sub)] += n.self;
        out.priv_cycles[p] += n.self;
        for (const auto& [frame, child] : n.children) work.push_back(child);
      }
    }
  }
  return out;
}

void Profiler::clear() {
  trees_.clear();
  frames_.clear();
  frame_by_name_.clear();
  frame_by_addr_.clear();
  in_session_ = false;
  cur_ = nullptr;
  for (auto& s : stack_) s.clear();
  skipped_ = {};
  user_stacks_.clear();
  cur_mm_ = 0;
  truncated_ = 0;
  mark_ = 0;
  cur_priv_ = 3;
}

// ---- Thread-local session ----

namespace {
thread_local std::unique_ptr<Profiler> g_profiler;
}  // namespace

Profiler* profiling() { return g_profiler.get(); }

Profiler& enable_profiling() {
  g_profiler = std::make_unique<Profiler>();
  return *g_profiler;
}

void disable_profiling() { g_profiler.reset(); }

}  // namespace ptstore::telemetry
