// Chrome-trace JSON escaping: span and instant names containing quotes,
// backslashes, control characters, and non-ASCII bytes must produce a
// document that parses, and the names must round-trip byte-exactly. The
// EventRing stores names as-is (static strings); all escaping is the
// exporter's job, centralized in json_escape().
#include <gtest/gtest.h>

#include <string>

#include "telemetry/json.h"
#include "telemetry/trace.h"
#include "telemetry/trace_export.h"

namespace ptstore::telemetry {
namespace {

TEST(JsonEscape, CoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
  // Non-ASCII bytes (UTF-8 payloads) pass through untouched: JSON strings
  // are UTF-8, so "ä" needs no escaping.
  EXPECT_EQ(json_escape("sp\xc3\xa4n"), "sp\xc3\xa4n");
}

TEST(ChromeTrace, HostileSpanNamesRoundTripThroughTheExporter) {
  static const char* const kNames[] = {
      "quote\"name",
      "back\\slash",
      "new\nline",
      "sp\xc3\xa4n_\xe2\x9c\x93",  // UTF-8: "spän ✓".
      "ctl\x01name",
  };

  EventRing ring;
  ring.session_begin();
  u64 t = 1;
  for (const char* name : kNames) {
    ring.begin(Subsystem::kSyscall, name, t, t, 1);
    ring.instant(Subsystem::kOther, name, t + 1, t + 1, 1);
    ring.end(Subsystem::kSyscall, name, t + 2, t + 2, 1);
    t += 3;
  }

  const std::string json = chrome_trace_json(ring);
  const std::optional<JsonValue> doc = json_parse(json);
  ASSERT_TRUE(doc.has_value()) << "exporter produced invalid JSON:\n" << json;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_TRUE(events != nullptr && events->is_array());

  // Every hostile name appears intact (begin + instant + end), and nothing
  // leaked a raw quote into the document structure.
  for (const char* name : kNames) {
    size_t seen = 0;
    for (const JsonValue& ev : events->arr) {
      const JsonValue* n = ev.find("name");
      ASSERT_TRUE(n != nullptr);
      if (n->str == name) ++seen;
    }
    EXPECT_EQ(seen, 3u) << "name mangled by the exporter: " << name;
  }
}

}  // namespace
}  // namespace ptstore::telemetry
