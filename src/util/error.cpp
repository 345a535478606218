#include "util/error.h"

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <new>
#include <sstream>

#include "util/format.h"

namespace rgleak {

namespace {

std::string format_parse_error(const std::string& source, std::size_t line, std::size_t column,
                               const std::string& message, const std::string& token) {
  std::ostringstream os;
  os << source << ':' << line;
  if (column > 0) os << ':' << column;
  os << ": " << message;
  if (!token.empty()) os << " (near '" << token << "')";
  return os.str();
}

}  // namespace

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kContract: return "contract";
    case ErrorCode::kNumerical: return "numerical";
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kIo: return "io";
    case ErrorCode::kConfig: return "config";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kResource: return "resource";
    case ErrorCode::kCrash: return "crash";
  }
  return "unknown";
}

int exit_code_for(ErrorCode code) {
  switch (code) {
    case ErrorCode::kContract: return 1;
    case ErrorCode::kConfig: return 2;
    case ErrorCode::kParse: return 3;
    case ErrorCode::kNumerical: return 4;
    case ErrorCode::kIo: return 5;
    case ErrorCode::kDeadline: return 6;
    case ErrorCode::kResource: return 8;
    case ErrorCode::kCrash: return 9;
  }
  return 1;
}

bool error_code_for_exit(int exit_code, ErrorCode& out) {
  switch (exit_code) {
    case 1: out = ErrorCode::kContract; return true;
    case 2: out = ErrorCode::kConfig; return true;
    case 3: out = ErrorCode::kParse; return true;
    case 4: out = ErrorCode::kNumerical; return true;
    case 5: out = ErrorCode::kIo; return true;
    case 6: out = ErrorCode::kDeadline; return true;
    case 8: out = ErrorCode::kResource; return true;
    case 9: out = ErrorCode::kCrash; return true;
  }
  return false;
}

ParseError::ParseError(std::string source, std::size_t line, std::size_t column,
                       const std::string& message, std::string token)
    : std::runtime_error(format_parse_error(source, line, column, message, token)),
      Error(ErrorCode::kParse, format_parse_error(source, line, column, message, token)),
      source_(std::move(source)),
      line_(line),
      column_(column),
      token_(std::move(token)) {}

std::string error_json(const Error& error) {
  std::ostringstream os;
  os << "{\"error\":\"" << error_code_name(error.code()) << "\",\"exit_code\":"
     << exit_code_for(error.code()) << ",\"message\":" << util::json_string(error.message());
  if (const auto* pe = dynamic_cast<const ParseError*>(&error)) {
    os << ",\"source\":" << util::json_string(pe->source());
    os << ",\"line\":" << pe->line() << ",\"column\":" << pe->column();
    if (!pe->token().empty()) os << ",\"token\":" << util::json_string(pe->token());
  }
  os << '}';
  return os.str();
}

std::string error_json(const std::exception& error) {
  if (const auto* typed = dynamic_cast<const Error*>(&error)) return error_json(*typed);
  std::ostringstream os;
  os << "{\"error\":\"internal\",\"exit_code\":1,\"message\":" << util::json_string(error.what())
     << '}';
  return os.str();
}

namespace {

bool g_terminate_json = false;

// The contract of the installed handler: one structured line on stderr, then
// the typed exit code — never the bare abort() the default handler produces.
[[noreturn]] void report_and_exit() {
  int code = 1;
  if (std::current_exception())
    code = report_current_exception(g_terminate_json);
  else if (g_terminate_json)  // noexcept violation, direct call
    std::fputs(
        "{\"error\":\"internal\",\"exit_code\":1,\"message\":\"terminated without an active "
        "exception\"}\n",
        stderr);
  else
    std::fputs("error: terminated without an active exception\n", stderr);
  std::fflush(stderr);
  std::_Exit(code);
}

}  // namespace

int report_current_exception(bool json_errors) {
  // Careful with allocations: a bad_alloc may be what got us here, so that
  // branch uses only static strings.
  try {
    std::rethrow_exception(std::current_exception());
  } catch (const std::bad_alloc&) {
    std::fputs(json_errors
                   ? "{\"error\":\"resource\",\"exit_code\":8,\"message\":\"allocation failed\"}\n"
                   : "error: allocation failed (out of memory)\n",
               stderr);
    return 8;
  } catch (const Error& e) {
    if (json_errors) {
      std::fprintf(stderr, "%s\n", error_json(e).c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", e.message().c_str());
      if (e.code() == ErrorCode::kContract)
        std::fputs("this is a bug in rgleak, not in your input; please report it\n", stderr);
    }
    return exit_code_for(e.code());
  } catch (const std::exception& e) {
    if (json_errors)
      std::fprintf(stderr, "%s\n", error_json(e).c_str());
    else
      std::fprintf(stderr, "error: %s\n", e.what());
  } catch (...) {
    std::fputs(json_errors
                   ? "{\"error\":\"internal\",\"exit_code\":1,\"message\":\"unknown exception\"}\n"
                   : "error: unknown exception\n",
               stderr);
  }
  return 1;
}

void install_terminate_handler(bool json_errors) {
  g_terminate_json = json_errors;
  std::set_terminate(report_and_exit);
}

}  // namespace rgleak
