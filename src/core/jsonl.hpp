#pragma once

/// \file jsonl.hpp
/// Shared JSONL (de)serialization helpers for PEAK's on-disk records —
/// the tuning journal and the persistent rating cache both speak the same
/// dialect: one JSON object per line, doubles as 16-hex-digit IEEE-754
/// bit patterns (never decimal text, so round trips are bit-exact), and a
/// minimal reader covering what the writers emit (objects, arrays,
/// strings, numbers, booleans). Numbers parse in both flavours: plain
/// unsigned integers keep their exact 64-bit value, while anything with a
/// sign, fraction, or exponent (as served by the telemetry endpoints)
/// parses as a double — as_double() reads either. No external JSON
/// dependency is available in the container, and the remaining generality
/// of JSON (unicode escapes, null) never appears in a record.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace peak::core::jsonl {

/// IEEE-754 bit pattern of `d` as 16 hex digits — the exact-round-trip
/// double encoding every PEAK record uses.
[[nodiscard]] std::string hex_double(double d);
/// Appends hex_double(d) to `out`.
void append_hex_double(std::string& out, double d);

/// JSON string literal with the escapes the reader understands.
[[nodiscard]] std::string quote(const std::string& s);
/// Appends quote(s) to `out`.
void append_quoted(std::string& out, std::string_view s);

class JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
public:
  enum class Type { kString, kNumber, kBool, kObject, kArray };
  Type type = Type::kString;
  std::string str;
  std::uint64_t num = 0;  ///< exact value of a plain unsigned integer
  bool is_real = false;   ///< number carried a sign/fraction/exponent
  double real = 0.0;      ///< value when is_real
  bool boolean = false;
  std::shared_ptr<JsonObject> object;
  std::shared_ptr<JsonArray> array;

  [[nodiscard]] const JsonValue& at(const std::string& key) const;
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  /// Any number as a double (integers convert; reals read directly).
  [[nodiscard]] double as_double() const;
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] const JsonArray& as_array() const;
  /// Hex-bit-pattern string back to double. Throws support::CheckError
  /// unless the string is 1 to 16 hex digits.
  [[nodiscard]] double as_hex_double() const;
};

/// Recursive-descent reader for one record line. Throws
/// support::CheckError on malformed input; callers treat that as a
/// damaged (e.g. partially written) line.
class JsonParser {
public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse();

private:
  void skip_ws();
  char peek();
  void expect(char c);
  JsonValue value();
  JsonValue object();
  JsonValue array();
  JsonValue string();
  JsonValue boolean();
  JsonValue number();

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace peak::core::jsonl
