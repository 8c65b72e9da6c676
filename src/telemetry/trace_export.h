// Exporter over the EventRing: Chrome trace_event JSON (open the file in
// chrome://tracing or https://ui.perfetto.dev).
//
// Chrome-trace mapping: ts/dur are microseconds in the viewer; we emit one
// simulated cycle per microsecond (so "1 ms" on screen = 1000 cycles).
// pid = session index (one per simulated machine run_on() built),
// tid = privilege level at emission, cat = subsystem.
#pragma once

#include <iosfwd>
#include <string>

#include "telemetry/trace.h"

namespace ptstore::telemetry {

void write_chrome_trace(std::ostream& os, const EventRing& ring);
std::string chrome_trace_json(const EventRing& ring);

}  // namespace ptstore::telemetry
