#include "core/jsonl.hpp"

#include <bit>
#include <cctype>
#include <cstdio>

#include "support/check.hpp"

namespace peak::core::jsonl {

std::string hex_double(double d) {
  char buf[17];
  std::snprintf(
      buf, sizeof buf, "%016llx",
      static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(d)));
  return buf;
}

std::string quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out += c;
    }
  }
  out += '"';
  return out;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  PEAK_CHECK(type == Type::kObject, "jsonl: not an object");
  auto it = object->find(key);
  PEAK_CHECK(it != object->end(), "jsonl: missing key " + key);
  return it->second;
}

bool JsonValue::has(const std::string& key) const {
  return type == Type::kObject && object->count(key) > 0;
}

const std::string& JsonValue::as_string() const {
  PEAK_CHECK(type == Type::kString, "jsonl: not a string");
  return str;
}

std::uint64_t JsonValue::as_u64() const {
  PEAK_CHECK(type == Type::kNumber && !is_real, "jsonl: not an integer");
  return num;
}

double JsonValue::as_double() const {
  PEAK_CHECK(type == Type::kNumber, "jsonl: not a number");
  return is_real ? real : static_cast<double>(num);
}

bool JsonValue::as_bool() const {
  PEAK_CHECK(type == Type::kBool, "jsonl: not a bool");
  return boolean;
}

const JsonArray& JsonValue::as_array() const {
  PEAK_CHECK(type == Type::kArray, "jsonl: not an array");
  return *array;
}

double JsonValue::as_hex_double() const {
  return std::bit_cast<double>(
      static_cast<std::uint64_t>(std::stoull(as_string(), nullptr, 16)));
}

JsonValue JsonParser::parse() {
  JsonValue v = value();
  skip_ws();
  PEAK_CHECK(pos_ == text_.size(), "jsonl: trailing garbage");
  return v;
}

void JsonParser::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_])))
    ++pos_;
}

char JsonParser::peek() {
  PEAK_CHECK(pos_ < text_.size(), "jsonl: truncated record");
  return text_[pos_];
}

void JsonParser::expect(char c) {
  PEAK_CHECK(peek() == c, std::string("jsonl: expected '") + c + "'");
  ++pos_;
}

JsonValue JsonParser::value() {
  skip_ws();
  switch (peek()) {
    case '{': return object();
    case '[': return array();
    case '"': return string();
    case 't':
    case 'f': return boolean();
    default: return number();
  }
}

JsonValue JsonParser::object() {
  JsonValue v;
  v.type = JsonValue::Type::kObject;
  v.object = std::make_shared<JsonObject>();
  expect('{');
  skip_ws();
  if (peek() == '}') { ++pos_; return v; }
  while (true) {
    skip_ws();
    JsonValue key = string();
    skip_ws();
    expect(':');
    (*v.object)[key.str] = value();
    skip_ws();
    if (peek() == ',') { ++pos_; continue; }
    expect('}');
    return v;
  }
}

JsonValue JsonParser::array() {
  JsonValue v;
  v.type = JsonValue::Type::kArray;
  v.array = std::make_shared<JsonArray>();
  expect('[');
  skip_ws();
  if (peek() == ']') { ++pos_; return v; }
  while (true) {
    v.array->push_back(value());
    skip_ws();
    if (peek() == ',') { ++pos_; continue; }
    expect(']');
    return v;
  }
}

JsonValue JsonParser::string() {
  JsonValue v;
  v.type = JsonValue::Type::kString;
  expect('"');
  while (true) {
    char c = peek();
    ++pos_;
    if (c == '"') return v;
    if (c == '\\') {
      char esc = peek();
      ++pos_;
      switch (esc) {
        case 'n': v.str += '\n'; break;
        case 't': v.str += '\t'; break;
        default: v.str += esc;
      }
    } else {
      v.str += c;
    }
  }
}

JsonValue JsonParser::boolean() {
  JsonValue v;
  v.type = JsonValue::Type::kBool;
  if (text_.compare(pos_, 4, "true") == 0) {
    v.boolean = true;
    pos_ += 4;
  } else if (text_.compare(pos_, 5, "false") == 0) {
    v.boolean = false;
    pos_ += 5;
  } else {
    PEAK_CHECK(false, "jsonl: bad literal");
  }
  return v;
}

JsonValue JsonParser::number() {
  JsonValue v;
  v.type = JsonValue::Type::kNumber;
  const std::size_t begin = pos_;
  bool real = false;
  if (pos_ < text_.size() && text_[pos_] == '-') {
    real = true;
    ++pos_;
  }
  const std::size_t digits_begin = pos_;
  auto take_digits = [&] {
    const std::size_t at = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    return pos_ > at;
  };
  PEAK_CHECK(take_digits(), "jsonl: bad number");
  if (pos_ < text_.size() && text_[pos_] == '.') {
    real = true;
    ++pos_;
    PEAK_CHECK(take_digits(), "jsonl: bad number");
  }
  if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
    real = true;
    ++pos_;
    if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
      ++pos_;
    PEAK_CHECK(take_digits(), "jsonl: bad number");
  }
  const std::string lit(text_.substr(begin, pos_ - begin));
  if (real) {
    v.is_real = true;
    v.real = std::stod(lit);
  } else {
    // 20 digits can overflow stoull; journal/cache writers only emit
    // in-range values, but a hostile record must throw CheckError, not
    // std::out_of_range.
    const std::string digits(text_.substr(digits_begin, pos_ - digits_begin));
    PEAK_CHECK(
        digits.size() < 20 ||
            (digits.size() == 20 && digits <= "18446744073709551615"),
        "jsonl: integer out of range");
    v.num = std::stoull(lit);
  }
  return v;
}

}  // namespace peak::core::jsonl
