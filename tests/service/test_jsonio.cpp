// The flat-object JSON parser behind manifests and journals: accepts the
// documented subset, unescapes strings, and rejects everything malformed with
// a located ParseError.

#include <gtest/gtest.h>

#include <string>

#include "service/jsonio.h"
#include "util/error.h"
#include "util/format.h"

namespace rgleak::service {
namespace {

JsonObject parse(const std::string& text) { return parse_json_object(text, "test.jsonl", 3); }

TEST(JsonIo, ParsesEveryScalarKind) {
  const JsonObject obj =
      parse(R"({"s":"hi","n":12.5,"neg":-3,"exp":1e-3,"t":true,"f":false,"z":null})");
  EXPECT_EQ(obj.at("s"), "hi");
  EXPECT_EQ(obj.at("n"), "12.5");
  EXPECT_EQ(obj.at("neg"), "-3");
  EXPECT_EQ(obj.at("exp"), "1e-3");
  EXPECT_EQ(obj.at("t"), "true");
  EXPECT_EQ(obj.at("f"), "false");
  EXPECT_EQ(obj.at("z"), "null");
}

TEST(JsonIo, ToleratesWhitespaceAndEmptyObject) {
  EXPECT_TRUE(parse("  { }  ").empty());
  const JsonObject obj = parse("\t{ \"a\" :\t\"b\" , \"c\" : 1 } ");
  EXPECT_EQ(obj.at("a"), "b");
  EXPECT_EQ(obj.at("c"), "1");
}

TEST(JsonIo, UnescapesStrings) {
  const JsonObject obj = parse(R"({"k":"a\"b\\c\nd\te\u0041f\u00e9"})");
  EXPECT_EQ(obj.at("k"), "a\"b\\c\nd\teAf\xc3\xa9");
}

TEST(JsonIo, EscapeRoundTripsArbitraryStrings) {
  const std::string nasty = "quote\" slash\\ nl\n tab\t ctl\x01 utf\xc3\xa9";
  const JsonObject obj = parse("{\"k\":" + util::json_string(nasty) + "}");
  EXPECT_EQ(obj.at("k"), nasty);
}

struct BadCase {
  const char* text;
  const char* needle;
};

const BadCase kBad[] = {
    {"", "unexpected end"},
    {"[1,2]", "expected '{'"},
    {"{\"a\":1", "unexpected end"},
    {"{\"a\" 1}", "expected ':'"},
    {"{\"a\":1,}", "expected '\"'"},
    {"{\"a\":1}{", "trailing"},
    {"{\"a\":bogus}", "scalar"},
    {"{\"a\":1.2.3}", "scalar"},
    {"{\"a\":\"\\q\"}", "escape"},
    {"{\"a\":\"\\ud800\"}", "surrogate"},
    {"{\"a\":1,\"a\":2}", "duplicate key"},
    {"{\"a\":{\"b\":1}}", "scalar"},  // nested objects are out of the subset
};

TEST(JsonIo, MalformedInputRaisesLocatedParseError) {
  for (const BadCase& c : kBad) {
    try {
      (void)parse(c.text);
      ADD_FAILURE() << "'" << c.text << "': expected ParseError, parse succeeded";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.source(), "test.jsonl") << c.text;
      EXPECT_EQ(e.line(), 3u) << c.text;
      const std::string what = e.what();
      EXPECT_NE(what.find(c.needle), std::string::npos) << c.text << ": " << what;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "'" << c.text << "': wrong exception type: " << e.what();
    }
  }
}

}  // namespace
}  // namespace rgleak::service
