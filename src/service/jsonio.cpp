#include "service/jsonio.h"

#include <cctype>

#include "util/error.h"
#include "util/format.h"

namespace rgleak::service {

namespace {

class Cursor {
 public:
  Cursor(const std::string& text, const std::string& source, std::size_t line)
      : text_(text), source_(source), line_(line) {}

  [[noreturn]] void fail(const std::string& message, std::string token = "") const {
    throw ParseError(source_, line_, pos_ + 1, message, std::move(token));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool done() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of JSON object");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    const char got = take();
    if (got != c) fail(std::string("expected '") + c + "'", std::string(1, got));
  }

  std::string string_literal() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape", std::string(1, h));
          }
          // UTF-8 encode (BMP only; surrogate pairs are not expected in our
          // own journals and are rejected as malformed input).
          if (cp >= 0xD800 && cp <= 0xDFFF) fail("surrogate \\u escape unsupported");
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("unknown escape", std::string(1, esc));
      }
    }
  }

  std::string scalar_literal() {
    skip_ws();
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ',' || c == '}' || std::isspace(static_cast<unsigned char>(c))) break;
      ++pos_;
    }
    if (pos_ == start) fail("expected a value");
    const std::string tok = text_.substr(start, pos_ - start);
    // Validate the literal: number, true, false, or null.
    if (tok == "true" || tok == "false" || tok == "null") return tok;
    // util::parse_double, not std::stod: stod honors LC_NUMERIC, so under a
    // decimal-comma locale it would reject the dot-formatted numbers every
    // writer in this codebase emits.
    double ignored = 0.0;
    if (!util::parse_double(tok, ignored)) fail("expected a JSON scalar", tok);
    return tok;
  }

  std::size_t pos() const { return pos_; }

 private:
  const std::string& text_;
  const std::string& source_;
  std::size_t line_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonObject parse_json_object(const std::string& text, const std::string& source,
                             std::size_t line) {
  Cursor c(text, source, line);
  JsonObject obj;
  c.expect('{');
  if (c.peek() == '}') {
    c.take();
  } else {
    while (true) {
      const std::string key = c.string_literal();
      c.expect(':');
      const std::string value = c.peek() == '"' ? c.string_literal() : c.scalar_literal();
      if (!obj.emplace(key, value).second) c.fail("duplicate key", key);
      const char next = c.take();
      if (next == '}') break;
      if (next != ',') c.fail("expected ',' or '}'", std::string(1, next));
    }
  }
  if (!c.done()) c.fail("trailing characters after JSON object");
  return obj;
}

}  // namespace rgleak::service
