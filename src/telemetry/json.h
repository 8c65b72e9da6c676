// Dependency-free JSON support for the telemetry layer: a streaming writer
// (commas/escaping handled centrally so exporters cannot emit malformed
// documents) and a small recursive-descent parser used by ptprof (saved
// profiles) and the tests to validate what the exporters produced. Numbers parse as double —
// exact for every counter below 2^53, which is all the schema checks need.
#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace ptstore::telemetry {

std::string json_escape(std::string_view s);

/// Streaming JSON writer. Call sequence is the document structure; the
/// writer inserts commas and quotes keys/strings.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  JsonWriter& begin_object();
  JsonWriter& end_object();
  JsonWriter& begin_array();
  JsonWriter& end_array();

  /// Key of the next member (objects only).
  JsonWriter& key(std::string_view k);

  JsonWriter& value(std::string_view s);
  JsonWriter& value(const char* s) { return value(std::string_view(s)); }
  JsonWriter& value(u64 v);
  JsonWriter& value_i64(i64 v);
  JsonWriter& value(int v) { return value(static_cast<u64>(v < 0 ? 0 : v)); }
  JsonWriter& value(double d);
  JsonWriter& value(bool b);

  template <typename T>
  JsonWriter& kv(std::string_view k, T v) {
    key(k);
    return value(v);
  }

 private:
  void separate();

  std::ostream& os_;
  std::vector<bool> container_has_member_;
  bool pending_key_ = false;
};

/// Parsed JSON value (validating parser; see json_parse).
struct JsonValue {
  enum class Kind : u8 { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string str;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;  // Insertion order.

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  /// Member lookup on objects; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parse a complete JSON document; nullopt on any syntax error or trailing
/// garbage.
std::optional<JsonValue> json_parse(std::string_view text);

}  // namespace ptstore::telemetry
