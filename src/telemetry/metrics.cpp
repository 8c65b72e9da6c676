#include "telemetry/metrics.h"

namespace ptstore::telemetry {

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry reg;
  return reg;
}

CounterId MetricsRegistry::intern(std::string_view name,
                                  std::string_view description,
                                  std::string_view unit) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (const auto it = by_name_.find(name); it != by_name_.end()) {
    CounterMeta& m = metas_[it->second];
    if (m.description.empty()) m.description = description;
    if (m.unit == "events" && !unit.empty()) m.unit = unit;
    return it->second;
  }
  const CounterId id = static_cast<CounterId>(metas_.size());
  metas_.push_back(CounterMeta{std::string(name), std::string(description),
                               unit.empty() ? "events" : std::string(unit)});
  by_name_.emplace(std::string(name), id);
  return id;
}

CounterMeta MetricsRegistry::meta(CounterId id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metas_[id];
}

std::optional<CounterId> MetricsRegistry::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it == by_name_.end()) return std::nullopt;
  return it->second;
}

size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return metas_.size();
}

Counter CounterBank::counter(std::string_view name, std::string_view description,
                             std::string_view unit) {
  const CounterId id = MetricsRegistry::instance().intern(name, description, unit);
  for (const Entry& e : entries_) {
    if (e.id == id) return Counter(e.cell, id);
  }
  cells_.push_back(0);
  entries_.push_back(Entry{id, &cells_.back()});
  return Counter(&cells_.back(), id);
}

StatSet CounterBank::snapshot() const {
  const MetricsRegistry& reg = MetricsRegistry::instance();
  StatSet out;
  for (const Entry& e : entries_) {
    if (*e.cell != 0) out.set(reg.meta(e.id).name, *e.cell);
  }
  return out;
}

u64 CounterBank::value_of(std::string_view name) const {
  const auto id = MetricsRegistry::instance().find(name);
  if (!id) return 0;
  for (const Entry& e : entries_) {
    if (e.id == *id) return *e.cell;
  }
  return 0;
}

void CounterBank::clear() {
  for (u64& c : cells_) c = 0;
}

}  // namespace ptstore::telemetry
