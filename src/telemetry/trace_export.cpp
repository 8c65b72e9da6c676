#include "telemetry/trace_export.h"

#include <cstdio>
#include <sstream>

#include "telemetry/json.h"

namespace ptstore::telemetry {

namespace {

const char* priv_name(u8 priv) {
  switch (priv) {
    case 0: return "U";
    case 1: return "S";
    case 3: return "M";
  }
  return "?";
}

}  // namespace

void write_chrome_trace(std::ostream& os, const EventRing& ring) {
  JsonWriter w(os);
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("otherData").begin_object();
  w.kv("tool", "ptstore");
  w.kv("clock", "simulated cycles (1 cycle = 1us in the viewer)");
  w.kv("events_emitted", ring.total_emitted());
  w.kv("events_dropped", ring.dropped());
  w.end_object();
  w.key("traceEvents").begin_array();
  for (const TraceEvent& ev : ring.events()) {
    w.begin_object();
    w.kv("name", ev.name);
    w.kv("cat", to_string(ev.sub));
    const char* ph = ev.phase == EventPhase::kBegin  ? "B"
                     : ev.phase == EventPhase::kEnd  ? "E"
                                                     : "i";
    w.kv("ph", ph);
    w.kv("ts", ev.cycles);
    w.kv("pid", static_cast<u64>(ev.session));
    w.kv("tid", static_cast<u64>(ev.priv));
    if (ev.phase == EventPhase::kInstant) w.kv("s", "t");
    w.key("args").begin_object();
    w.kv("arg", ev.arg);
    w.kv("instret", ev.instret);
    w.kv("priv", priv_name(ev.priv));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
}

std::string chrome_trace_json(const EventRing& ring) {
  std::ostringstream os;
  write_chrome_trace(os, ring);
  return os.str();
}

}  // namespace ptstore::telemetry
