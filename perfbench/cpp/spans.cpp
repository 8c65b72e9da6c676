#include "spans.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

uint16_t SpanLog::intern(const char* name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint16_t>(i);
  }
  names_.push_back(name);
  totals_.emplace_back();
  return static_cast<uint16_t>(names_.size() - 1);
}

void SpanLog::begin(const char* name, uint64_t op) {
  Open o{now_ns(), 0, 0, intern(name)};
  if (spans_.size() < kMaxKept) {
    Span s;
    s.start_ns = o.start_ns;
    s.op = op;
    s.parent = stack_.empty() ? 0 : stack_.back().index;
    s.name = o.name;
    spans_.push_back(s);
    o.index = static_cast<uint32_t>(spans_.size());
  } else {
    ++dropped_;
  }
  stack_.push_back(o);
}

void SpanLog::end() {
  const uint64_t t = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const uint64_t dur = t - o.start_ns;
  last_ns_ = dur;
  if (o.index != 0) spans_[o.index - 1].end_ns = t;
  Totals& tot = totals_[o.name];
  ++tot.count;
  tot.busy_ns += dur;
  tot.child_ns += o.child_ns;
  tot.durations_ns.push_back(dur);
  if (!stack_.empty()) stack_.back().child_ns += dur;
}

const SpanLog::Totals* SpanLog::find(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (name == names_[i]) return &totals_[i];
  }
  return nullptr;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u,"
                 "\"op\":%llu}}\n",
                 i == 0 ? "" : ",", names_[s.name],
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i + 1, s.parent,
                 static_cast<unsigned long long>(s.op));
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%llu}}\n",
               static_cast<unsigned long long>(dropped_));
  return std::fclose(f) == 0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) {
  if (v.empty()) return 0;
  std::vector<double> s = v;
  std::sort(s.begin(), s.end());
  const size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

void Metrics::add(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : list_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list_.push_back(Metric{name, value, unit});
}

void Metrics::ratio(const std::string& name, double num, double den,
                    const std::string& base_unit) {
  add(name, den > 0 ? num / den : 0, "ratio");
  add(name + ".base", den, base_unit);
}

const Metric* Metrics::find(const std::string& name) const {
  for (const Metric& m : list_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

}  // namespace perfbench
