#pragma once
// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) for integrity trailers on
// crash-critical files: MC checkpoints carry a whole-file trailer and batch
// journal lines a per-record checksum, so a torn write, a bit flip, or a
// filesystem that lied about durability is rejected at read time with a
// located ParseError instead of silently resuming from corrupt state.
//
// Software table-driven implementation (the container has no zlib); ~500 MB/s
// is far above what the text formats it guards ever reach.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace rgleak::util {

/// CRC of `data` continuing from `seed` (pass the previous return value to
/// checksum a file in chunks). The default seed starts a fresh checksum.
std::uint32_t crc32(std::string_view data, std::uint32_t seed = 0);

/// Renders a CRC as the fixed-width lowercase hex the file trailers use.
/// Always 8 characters, zero-padded.
std::string crc32_hex(std::uint32_t crc);

/// Parses an 8-character lowercase/uppercase hex CRC. Returns false on any
/// other shape (wrong length, non-hex characters).
bool parse_crc32_hex(std::string_view text, std::uint32_t& out);

/// The `,"crc":"xxxxxxxx"` trailer of one-line JSON records (journal
/// records, trace spans): the CRC of the record as rendered without the
/// trailer, as the last field. Inserts it before the closing brace of
/// `record`, which must end in '}'.
void add_crc_trailer(std::string& record);

enum class CrcTrailer {
  kAbsent,  ///< no trailer; the record is left as it was
  kOk,      ///< the trailer verified and was stripped
  kBad,     ///< a trailer whose value is not 8 hex digits or does not match
};

/// Verifies the trailer add_crc_trailer wrote and, when it holds, strips it.
CrcTrailer strip_crc_trailer(std::string& record);

}  // namespace rgleak::util
