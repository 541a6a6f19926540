#pragma once

#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

/// Internal to src/obs/: the one JSON string escaper of the layer's
/// renderers (metrics snapshot, Chrome trace) and the one strict parser
/// of the shapes they emit (metrics snapshot, scheduler profile).
/// Deliberately small: every error names its offset so a truncated or
/// hand-edited sidecar is diagnosable.
namespace rdv::obs::json {

/// Appends `s` as a JSON string literal: `"` and `\` escaped, every
/// other control byte as \u00XX (which Cursor::parse_string accepts).
inline void append_string(std::string& out, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (byte < 0x20) {
      out += "\\u00";
      out += kHex[byte >> 4];
      out += kHex[byte & 0xF];
    } else {
      out += c;
    }
  }
  out += '"';
}

struct Cursor {
  std::string_view text;
  /// Error prefix naming the format, e.g. "metrics json".
  const char* format;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(std::string(format) + ": " + what +
                             " at offset " + std::to_string(pos));
  }
  void skip_ws() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])) != 0) {
      ++pos;
    }
  }
  [[nodiscard]] char peek() {
    skip_ws();
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }
  [[nodiscard]] bool try_consume(char c) {
    skip_ws();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }
  /// Accepts the escapes append_string emits: \" \\ and \u00XX.
  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos++];
      if (c == '\\') {
        if (pos >= text.size()) fail("dangling escape");
        c = text[pos++];
        if (c == 'u') {
          const std::string_view hex = text.substr(pos, 4);
          if (hex.size() != 4 || hex.substr(0, 2) != "00" ||
              std::isxdigit(static_cast<unsigned char>(hex[2])) == 0 ||
              std::isxdigit(static_cast<unsigned char>(hex[3])) == 0) {
            fail("unsupported escape");
          }
          c = static_cast<char>(std::stoi(std::string(hex), nullptr, 16));
          pos += 4;
        } else if (c != '"' && c != '\\') {
          fail("unsupported escape");
        }
      }
      out += c;
    }
    if (pos >= text.size()) fail("unterminated string");
    ++pos;
    return out;
  }
  /// A run of decimal digits as a uint64; fails on overflow.
  [[nodiscard]] std::uint64_t parse_digits(const char* expected) {
    if (pos >= text.size() ||
        std::isdigit(static_cast<unsigned char>(text[pos])) == 0) {
      fail(expected);
    }
    std::uint64_t value = 0;
    while (pos < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
      const auto digit = static_cast<std::uint64_t>(text[pos] - '0');
      if (value > (UINT64_MAX - digit) / 10) fail("integer out of range");
      value = value * 10 + digit;
      ++pos;
    }
    return value;
  }
  [[nodiscard]] std::int64_t parse_int() {
    skip_ws();
    const bool negative = pos < text.size() && text[pos] == '-';
    if (negative) ++pos;
    const std::uint64_t magnitude = parse_digits("expected integer");
    constexpr auto kMax = static_cast<std::uint64_t>(INT64_MAX);
    if (magnitude > kMax + (negative ? 1 : 0)) fail("integer out of range");
    // Negated in uint64 (modular) and converted: no signed overflow
    // at INT64_MIN.
    return static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
  }
  [[nodiscard]] std::uint64_t parse_uint() {
    skip_ws();
    return parse_digits("expected non-negative integer");
  }
  [[nodiscard]] bool parse_bool() {
    skip_ws();
    if (text.compare(pos, 4, "true") == 0) {
      pos += 4;
      return true;
    }
    if (text.compare(pos, 5, "false") == 0) {
      pos += 5;
      return false;
    }
    fail("expected boolean");
  }
  /// Fails unless only whitespace is left.
  void expect_end() {
    skip_ws();
    if (pos != text.size()) fail("trailing garbage");
  }
};

/// Parses {"key": <value>, ...}, invoking on_entry(key) per key with
/// the cursor at the value.
template <typename OnEntry>
void parse_object(Cursor& cursor, const OnEntry& on_entry) {
  cursor.expect('{');
  if (cursor.try_consume('}')) return;
  do {
    std::string key = cursor.parse_string();
    cursor.expect(':');
    on_entry(std::move(key));
  } while (cursor.try_consume(','));
  cursor.expect('}');
}

/// Parses [<value>, ...], invoking on_element() per element.
template <typename OnElement>
void parse_array(Cursor& cursor, const OnElement& on_element) {
  cursor.expect('[');
  if (cursor.try_consume(']')) return;
  do {
    on_element();
  } while (cursor.try_consume(','));
  cursor.expect(']');
}

}  // namespace rdv::obs::json
