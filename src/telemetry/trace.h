// Structured event tracing: a bounded ring of typed spans and instants,
// each stamped with *simulated* cycles and instret. Tracing is a pure
// observer — no call site ever charges cycles for it, so simulated timing
// with tracing enabled is bit-identical to tracing disabled (asserted by
// tests/integration/telemetry_test.cpp).
//
// The ring is only the event log; cycle attribution is the Profiler's
// (profile.h). Each System's core starts counting cycles at 0, and one
// bench run builds several systems (the four paper configurations), so the
// workload driver starts a session per run_on(): events carry the session
// index, which the Chrome export uses as the process id.
#pragma once

#include <deque>

#include "common/types.h"
#include "telemetry/profile.h"

namespace ptstore::telemetry {

enum class EventPhase : u8 {
  kBegin,    ///< Span opens.
  kEnd,      ///< Span closes (LIFO within a session).
  kInstant,  ///< Point event.
};

struct TraceEvent {
  u64 cycles = 0;
  u64 instret = 0;
  const char* name = "";  ///< Static string supplied by the emitter.
  u64 arg = 0;            ///< Event-specific payload (Sys, VA, pid, ...).
  u32 session = 0;
  Subsystem sub = Subsystem::kOther;
  EventPhase phase = EventPhase::kInstant;
  u8 priv = 3;  ///< Privilege at emission (Privilege encoding; 3 = M).
};

class EventRing {
 public:
  explicit EventRing(size_t capacity = size_t{1} << 16) : capacity_(capacity) {}

  /// Start the next simulated machine's run: later events carry its index.
  void session_begin() { ++session_; }

  void begin(Subsystem sub, const char* name, u64 cycles, u64 instret, u8 priv,
             u64 arg = 0);
  void end(Subsystem sub, const char* name, u64 cycles, u64 instret, u8 priv,
           u64 arg = 0);
  void instant(Subsystem sub, const char* name, u64 cycles, u64 instret, u8 priv,
               u64 arg = 0);

  /// Retained window (oldest events are dropped first once full).
  const std::deque<TraceEvent>& events() const { return events_; }
  u64 total_emitted() const { return total_; }
  u64 dropped() const { return dropped_; }
  u32 sessions() const { return session_; }
  size_t capacity() const { return capacity_; }

 private:
  void push(const TraceEvent& ev);

  size_t capacity_;
  std::deque<TraceEvent> events_;
  u64 total_ = 0;
  u64 dropped_ = 0;
  u32 session_ = 0;
};

// ---- Global trace session ----
//
// tracing() returns nullptr while disabled (the default), so instrumentation
// sites cost one load + branch. The instrumented hot paths all follow:
//
//   if (telemetry::EventRing* tr = telemetry::tracing()) {
//     tr->instant(Subsystem::kPtInsn, "sd.pt", cycles, instret, priv, va);
//   }

/// The active ring, or nullptr when tracing is disabled.
EventRing* tracing();

/// Enable tracing with a fresh ring of `capacity` events; returns it.
EventRing& enable_tracing(size_t capacity = size_t{1} << 16);

void disable_tracing();

/// RAII span over any clock-bearing object with cycles()/instret()/priv()
/// (Core and Kernel-adjacent components). No-op while tracing is disabled.
/// When a call-stack profiler is active on this thread (profile.h), the
/// span doubles as a profile frame tagged with its subsystem, so every
/// instrumented kernel path shows up in flamegraphs and in the cycle
/// attribution table without separate markers.
template <typename ClockT>
class ScopedSpan {
 public:
  ScopedSpan(ClockT& clock, Subsystem sub, const char* name, u64 arg = 0)
      : clock_(clock), ring_(tracing()), prof_(profiling()), sub_(sub),
        name_(name) {
    if (ring_ != nullptr) {
      ring_->begin(sub_, name_, clock_.cycles(), clock_.instret(),
                   static_cast<u8>(clock_.priv()), arg);
    }
    if (prof_ != nullptr) {
      prof_->push(name_, sub_, clock_.cycles(), static_cast<u8>(clock_.priv()));
    }
  }
  ~ScopedSpan() {
    if (ring_ != nullptr) {
      ring_->end(sub_, name_, clock_.cycles(), clock_.instret(),
                 static_cast<u8>(clock_.priv()));
    }
    if (prof_ != nullptr) {
      prof_->pop(clock_.cycles(), static_cast<u8>(clock_.priv()));
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ClockT& clock_;
  EventRing* ring_;
  Profiler* prof_;
  Subsystem sub_;
  const char* name_;
};

}  // namespace ptstore::telemetry
