#pragma once
// Locale-independent numeric formatting and parsing, and JSON string
// escaping.
//
// printf-family and ostream double formatting honor LC_NUMERIC, so a process
// started under e.g. LC_ALL=de_DE.UTF-8 emits "3,14" — which the strict JSONL
// parsers (journal, result pipe, bench JSON) then refuse. Every writer that
// produces machine-readable numbers goes through these helpers instead; they
// are specified to match the C locale exactly regardless of the process
// locale (std::to_chars is locale-independent by definition).

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>

namespace rgleak::util {

/// C-locale equivalent of snprintf("%.*g", precision, value).
/// Non-finite values format as "nan", "inf", "-inf" (matching glibc printf).
std::string format_double(double value, int precision = 17);

/// C-locale equivalent of snprintf("%.*f", precision, value).
std::string format_double_fixed(double value, int precision);

/// Locale-independent strtod over the WHOLE string (decimal or scientific
/// form, plus "inf"/"nan" spellings). Returns false unless every character
/// was consumed. Stricter than std::stod: no leading whitespace, no '+'
/// sign, no hex floats — i.e. exactly the JSON-compatible subset.
bool parse_double(std::string_view text, double& out);

/// std::from_chars over the WHOLE string: a decimal (or `base`) integer with
/// no whitespace and no '+' sign, and no '-' for unsigned types. Returns
/// false on anything else, including overflow.
template <class Int>
bool parse_int(std::string_view text, Int& out, int base = 10) {
  const auto [end, ec] = std::from_chars(text.data(), text.data() + text.size(), out, base);
  return ec == std::errc() && end == text.data() + text.size();
}

/// Appends `s` to `out` as a JSON string literal, quotes included: `"` and
/// `\` are backslash-escaped, \n \r \t keep their short forms, every other
/// byte below 0x20 becomes \u00XX, and all other bytes (UTF-8 included) pass
/// through. The one escaper behind journal lines, error_json, metrics
/// snapshots and trace spans.
void append_json_string(std::string& out, std::string_view s);

/// `s` as a JSON string literal (see append_json_string).
std::string json_string(std::string_view s);

}  // namespace rgleak::util
