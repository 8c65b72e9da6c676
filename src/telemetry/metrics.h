// Interned performance counters. The process-wide MetricsRegistry owns the
// name/description/unit metadata; values live in a CounterBank. A machine
// has one bank per hart, owned by the Core, and one for the kernel, owned by
// the Kernel. A component takes its owner's bank at construction, registers
// each counter once, and keeps only the Counter handles: the hot path is a
// single pointer-indirected increment, with no string hashing and no map
// lookup. Reports read a bank back as a StatSet (common/stats.h) snapshot.
//
//   class Mmu {                          // a component: handles only
//    public:
//     explicit Mmu(telemetry::CounterBank& bank)
//         : walks_(bank.counter("mmu.walks", "page-table walks")) {}
//     void walk() { walks_.add(); }       // hot path
//    private:
//     telemetry::Counter walks_;
//   };
//
//   class Core {                         // an owner: the bank, then components
//     telemetry::CounterBank bank_;
//     Mmu mmu_{bank_};
//     StatSet merged_stats() const { return bank_.snapshot(); }
//   };
#pragma once

#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace ptstore::telemetry {

using CounterId = u32;
inline constexpr CounterId kInvalidCounterId = ~CounterId{0};

/// Reporting metadata for one interned counter name.
struct CounterMeta {
  std::string name;
  std::string description;
  std::string unit;  ///< "events" unless registered otherwise.
};

/// Process-wide catalog of counter names. Holds metadata only — values live
/// in per-hart and per-kernel CounterBanks, so two simulated machines in one
/// process (e.g. the four configurations of measure()) never share cells. All
/// members are mutex-guarded: the fleet runner (src/harness/fleet.h)
/// constructs Systems — and therefore interns counters — on worker threads.
class MetricsRegistry {
 public:
  static MetricsRegistry& instance();

  /// Intern `name`, returning its stable id. Re-interning an existing name
  /// returns the same id; the first non-empty description/unit win.
  CounterId intern(std::string_view name, std::string_view description = {},
                   std::string_view unit = {});

  CounterMeta meta(CounterId id) const;
  std::optional<CounterId> find(std::string_view name) const;
  size_t size() const;

 private:
  mutable std::mutex mu_;
  std::deque<CounterMeta> metas_;
  std::map<std::string, CounterId, std::less<>> by_name_;
};

namespace detail {
/// Target of default-constructed Counter handles, so an unbound handle is
/// inert instead of undefined behaviour.
inline u64 g_counter_sink = 0;
}  // namespace detail

/// Cheap handle to one counter cell. Copyable; add() is the hot path.
class Counter {
 public:
  Counter() = default;

  void add(u64 delta = 1) { *cell_ += delta; }
  void set(u64 v) { *cell_ = v; }
  u64 value() const { return *cell_; }
  CounterId id() const { return id_; }

 private:
  friend class CounterBank;
  Counter(u64* cell, CounterId id) : cell_(cell), id_(id) {}

  u64* cell_ = &detail::g_counter_sink;
  CounterId id_ = kInvalidCounterId;
};

/// Value storage for the counters of one hart or one kernel. Cell addresses
/// are stable for the bank's lifetime (deque), so Counter handles never
/// dangle while the bank lives; the bank is not copyable for the same reason.
class CounterBank {
 public:
  CounterBank() = default;
  CounterBank(const CounterBank&) = delete;
  CounterBank& operator=(const CounterBank&) = delete;

  /// Register a counter in this bank (interning its metadata globally) and
  /// return the handle. A name already registered here returns a handle to
  /// its existing cell, so a component rebuilt over the same bank (a
  /// checkpoint restore) keeps counting where its predecessor stopped.
  Counter counter(std::string_view name, std::string_view description = {},
                  std::string_view unit = {});

  /// Every nonzero counter by name. Zero-valued counters are skipped: a key
  /// exists iff its counter was bumped.
  StatSet snapshot() const;

  /// Value by full name; 0 when the bank has no such counter.
  u64 value_of(std::string_view name) const;

  /// Zero every cell.
  void clear();

  size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    CounterId id;
    u64* cell;
  };

  std::deque<u64> cells_;  // Stable addresses.
  std::vector<Entry> entries_;
};

}  // namespace ptstore::telemetry
