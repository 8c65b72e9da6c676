#include "telemetry/trace.h"

#include <memory>

namespace ptstore::telemetry {

void EventRing::push(const TraceEvent& ev) {
  ++total_;
  if (capacity_ == 0) {
    ++dropped_;
    return;
  }
  if (events_.size() == capacity_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(ev);
}

void EventRing::begin(Subsystem sub, const char* name, u64 cycles, u64 instret,
                      u8 priv, u64 arg) {
  push(TraceEvent{cycles, instret, name, arg, session_, sub, EventPhase::kBegin,
                  priv});
}

void EventRing::end(Subsystem sub, const char* name, u64 cycles, u64 instret,
                    u8 priv, u64 arg) {
  push(TraceEvent{cycles, instret, name, arg, session_, sub, EventPhase::kEnd,
                  priv});
}

void EventRing::instant(Subsystem sub, const char* name, u64 cycles, u64 instret,
                        u8 priv, u64 arg) {
  push(TraceEvent{cycles, instret, name, arg, session_, sub, EventPhase::kInstant,
                  priv});
}

namespace {
std::unique_ptr<EventRing> g_ring;
}  // namespace

EventRing* tracing() { return g_ring.get(); }

EventRing& enable_tracing(size_t capacity) {
  g_ring = std::make_unique<EventRing>(capacity);
  return *g_ring;
}

void disable_tracing() { g_ring.reset(); }

}  // namespace ptstore::telemetry
