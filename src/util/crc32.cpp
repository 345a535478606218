#include "util/crc32.h"

#include <array>
#include <string>

namespace rgleak::util {

namespace {

std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : data)
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::string crc32_hex(std::uint32_t crc) {
  static const char* digits = "0123456789abcdef";
  std::string out(8, '0');
  for (int i = 7; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[crc & 0xFu];
    crc >>= 4;
  }
  return out;
}

bool parse_crc32_hex(std::string_view text, std::uint32_t& out) {
  if (text.size() != 8) return false;
  std::uint32_t v = 0;
  for (const char c : text) {
    v <<= 4;
    if (c >= '0' && c <= '9') v |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f') v |= static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F') v |= static_cast<std::uint32_t>(c - 'A' + 10);
    else return false;
  }
  out = v;
  return true;
}

namespace {
constexpr std::string_view kCrcKey = ",\"crc\":\"";
}  // namespace

void add_crc_trailer(std::string& record) {
  record.insert(record.size() - 1, std::string(kCrcKey) + crc32_hex(crc32(record)) + "\"");
}

CrcTrailer strip_crc_trailer(std::string& record) {
  // Inside a JSON string a quote is escaped, so the unescaped key can only
  // be a field; the trailer is the last one.
  const std::size_t at = record.rfind(kCrcKey);
  if (at == std::string::npos || !record.ends_with("\"}") ||
      at + kCrcKey.size() > record.size() - 2)
    return CrcTrailer::kAbsent;
  const std::size_t value_at = at + kCrcKey.size();
  std::uint32_t want = 0;
  if (!parse_crc32_hex(std::string_view(record).substr(value_at, record.size() - 2 - value_at),
                       want))
    return CrcTrailer::kBad;
  std::string base = record.substr(0, at) + "}";
  if (crc32(base) != want) return CrcTrailer::kBad;
  record = std::move(base);
  return CrcTrailer::kOk;
}

}  // namespace rgleak::util
