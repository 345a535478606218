#include "util/format.h"

#include <charconv>
#include <cmath>
#include <system_error>

#include "util/require.h"

namespace rgleak::util {

namespace {

std::string to_chars_format(double value, std::chars_format fmt, int precision) {
  if (std::isnan(value)) return std::signbit(value) ? "-nan" : "nan";
  if (std::isinf(value)) return std::signbit(value) ? "-inf" : "inf";
  // %.*g with precision 0 behaves as precision 1 (C11 7.21.6.1); to_chars is
  // specified against printf, but clamp here so both helpers agree even if a
  // caller passes 0 to the fixed variant.
  if (precision < 1 && fmt == std::chars_format::general) precision = 1;
  if (precision < 0) precision = 0;
  char buf[512];  // worst-case %.*f of DBL_MAX: 309 digits + precision
  auto [end, ec] = std::to_chars(buf, buf + sizeof buf, value, fmt, precision);
  RGLEAK_REQUIRE(ec == std::errc(), "format_double: buffer exhausted");
  return std::string(buf, end);
}

}  // namespace

std::string format_double(double value, int precision) {
  return to_chars_format(value, std::chars_format::general, precision);
}

std::string format_double_fixed(double value, int precision) {
  return to_chars_format(value, std::chars_format::fixed, precision);
}

bool parse_double(std::string_view text, double& out) {
  double v = 0.0;
  auto [p, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v, std::chars_format::general);
  if (ec != std::errc() || p != text.data() + text.size()) return false;
  out = v;
  return true;
}

void append_json_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHex[(c >> 4) & 0xF];
          out += kHex[c & 0xF];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

std::string json_string(std::string_view s) {
  std::string out;
  append_json_string(out, s);
  return out;
}

}  // namespace rgleak::util
