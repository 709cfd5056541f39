#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "base/result.h"

namespace sitm::io {

/// \brief A JSON document value (null, bool, number, string, array, or
/// object). Objects preserve insertion order, which keeps exports
/// deterministic and diffs readable.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  /// Constructors for each kind.
  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}          // NOLINT
  JsonValue(bool b) : value_(b) {}                        // NOLINT
  JsonValue(std::int64_t i) : value_(i) {}                // NOLINT
  JsonValue(int i) : value_(static_cast<std::int64_t>(i)) {}  // NOLINT
  JsonValue(double d) : value_(d) {}                      // NOLINT
  JsonValue(std::string s) : value_(std::move(s)) {}      // NOLINT
  JsonValue(const char* s) : value_(std::string(s)) {}    // NOLINT
  JsonValue(Array a) : value_(std::move(a)) {}            // NOLINT
  JsonValue(Object o) : value_(std::move(o)) {}           // NOLINT

  bool is_null() const { return std::holds_alternative<std::nullptr_t>(value_); }
  bool is_bool() const { return std::holds_alternative<bool>(value_); }
  bool is_int() const { return std::holds_alternative<std::int64_t>(value_); }
  bool is_double() const { return std::holds_alternative<double>(value_); }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return std::holds_alternative<std::string>(value_); }
  bool is_array() const { return std::holds_alternative<Array>(value_); }
  bool is_object() const { return std::holds_alternative<Object>(value_); }

  /// Checked accessors.
  [[nodiscard]] Result<bool> AsBool() const;
  [[nodiscard]] Result<std::int64_t> AsInt() const;
  [[nodiscard]] Result<double> AsDouble() const;  ///< accepts ints too
  [[nodiscard]] Result<std::string> AsString() const;
  [[nodiscard]] Result<const Array*> AsArray() const;
  [[nodiscard]] Result<const Object*> AsObject() const;

  /// Object field lookup (first match), or NotFound.
  [[nodiscard]] Result<const JsonValue*> Get(std::string_view key) const;

  /// Serializes compactly ({"a":1,...}).
  std::string Dump() const;

  /// Serializes with 2-space indentation.
  std::string Pretty() const;

  /// Parses a complete JSON document (trailing garbage is an error).
  [[nodiscard]] static Result<JsonValue> Parse(std::string_view text);

 private:
  void DumpTo(std::string* out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

/// Escapes a string for embedding in JSON (adds surrounding quotes).
std::string JsonEscape(std::string_view s);

}  // namespace sitm::io

