// Host timing for the benchmark: a monotonic clock, the in-memory span log
// of the traced run, and the metric list a run reports.
//
// Spans are recorded only by the benchmark's own code, around its calls into
// a simulator layer; nothing inside the simulator is instrumented. Each span
// has a name (its layer and call), start and end, its parent (the enclosing
// open span) and an op id. The log keeps per-name totals for every span and
// the raw spans up to a cap, written out as a Chrome trace when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t now_ns() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

inline double seconds_since(uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

struct Span {
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t op = 0;
  uint32_t parent = 0;  ///< 1-based index of the enclosing span; 0 = none.
  uint16_t name = 0;    ///< Index into SpanLog::names().
};

class SpanLog {
 public:
  /// Per-name aggregate over every span recorded with that name.
  struct Totals {
    uint64_t count = 0;
    uint64_t busy_ns = 0;   ///< Sum of span durations.
    uint64_t child_ns = 0;  ///< Part of busy_ns covered by child spans.
    std::vector<uint64_t> durations_ns;
    uint64_t self_ns() const { return busy_ns - child_ns; }
  };

  /// Recording is off until enabled; begin/end are then no-ops.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Open a span; `name` must outlive the log (a string literal).
  void begin(const char* name, uint64_t op = 0);
  /// Close the innermost open span.
  void end();
  /// Duration of the span closed last.
  uint64_t last_ns() const { return last_ns_; }

  /// Totals of every span named `name`; nullptr when none was recorded.
  const Totals* find(const std::string& name) const;

  /// Write the kept spans as Chrome trace_event JSON ("X" events, one
  /// process, parent and op id in args). Returns false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Open {
    uint64_t start_ns;
    uint64_t child_ns;
    uint32_t index;  ///< 1-based index in spans_, 0 when not kept.
    uint16_t name;
  };
  /// Spans kept for the trace file; later ones only reach the totals.
  static constexpr size_t kMaxKept = 1u << 17;

  /// Id of `name`, by pointer: every call site passes a string literal.
  uint16_t intern(const char* name);

  bool enabled_ = false;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::vector<const char*> names_;  ///< Indexed by name id.
  std::vector<Totals> totals_;      ///< Indexed by name id.
  uint64_t dropped_ = 0;
  uint64_t last_ns_ = 0;
};

/// RAII span; free when the log is disabled.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, uint64_t op = 0) : log_(log) {
    if (log_.enabled()) {
      log_.begin(name, op);
      open_ = true;
    }
  }
  ~SpanScope() {
    if (open_) log_.end();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanLog& log_;
  bool open_ = false;
};

/// The q-quantile (0..1, nearest rank) of `v`; 0 for an empty list.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list; a name added twice keeps the last value.
class Metrics {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// `name` plus `name_base`: a ratio is never reported without its base.
  void ratio(const std::string& name, double num, double den,
             const std::string& base_unit);
  const std::vector<Metric>& list() const { return list_; }
  const Metric* find(const std::string& name) const;

 private:
  std::vector<Metric> list_;
};

}  // namespace perfbench
