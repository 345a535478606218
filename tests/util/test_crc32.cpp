// The `,"crc":"xxxxxxxx"` trailer of journal records and trace spans
// (util/crc32.h): adding then stripping is the identity, a record without a
// trailer reads as absent, and a malformed or wrong value reads as bad and
// leaves the record untouched.

#include "util/crc32.h"

#include <gtest/gtest.h>

#include <string>

namespace rgleak::util {
namespace {

TEST(CrcTrailer, AddThenStripRoundTrips) {
  const std::string original = "{\"job\":\"a\",\"n\":1}";
  std::string rec = original;
  add_crc_trailer(rec);
  EXPECT_EQ(rec, "{\"job\":\"a\",\"n\":1,\"crc\":\"" + crc32_hex(crc32(original)) + "\"}");
  EXPECT_EQ(strip_crc_trailer(rec), CrcTrailer::kOk);
  EXPECT_EQ(rec, original);
}

TEST(CrcTrailer, RecordsWithoutATrailerAreAbsent) {
  // The key inside a string value is escaped, so it is not a trailer.
  for (std::string rec : {"{\"job\":\"a\"}", "{\"msg\":\"x,\\\"crc\\\":\\\"00000000\\\"\"}"}) {
    const std::string before = rec;
    EXPECT_EQ(strip_crc_trailer(rec), CrcTrailer::kAbsent) << before;
    EXPECT_EQ(rec, before);
  }
}

TEST(CrcTrailer, MalformedOrWrongValuesAreBad) {
  for (std::string rec :
       {"{\"job\":\"a\",\"crc\":\"zzzzzzzz\"}", "{\"job\":\"a\",\"crc\":\"1234\"}",
        "{\"job\":\"a\",\"crc\":\"\"}", "{\"job\":\"a\",\"crc\":\"00000000\"}",
        "{\"job\":\"a\",\"crc\":\"00000000\",\"x\":\"y\"}"}) {
    const std::string before = rec;
    EXPECT_EQ(strip_crc_trailer(rec), CrcTrailer::kBad) << before;
    EXPECT_EQ(rec, before);
  }
}

}  // namespace
}  // namespace rgleak::util
