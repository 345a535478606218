#pragma once
// The rgleak error taxonomy.
//
// Every failure the library raises is one of five typed errors, each carrying
// an ErrorCode so front ends can map failures to exit codes / machine-readable
// reports without string matching:
//
//   ContractViolation  — a documented precondition or invariant was broken.
//                        This is a *bug in the caller* (or in rgleak itself),
//                        never bad user input. CLI exit code 1 ("please
//                        report").
//   NumericalError     — a numerical routine failed: non-PSD correlation
//                        matrix, diverging expectation, ill-conditioned fit,
//                        overflow, or an estimator post-condition (finite
//                        mean, variance >= 0) that did not hold. Exit code 4.
//   ParseError         — malformed input text (.bench, .rgnl, .rgchar, ...).
//                        Carries the source name, 1-based line and column, and
//                        the offending token. Exit code 3.
//   IoError            — the OS said no: open/read/write failures. Exit
//                        code 5.
//   ConfigError        — structurally valid input that asks for something
//                        impossible (unknown correlation family, bad option
//                        combination). Exit code 2, like a usage error.
//   DeadlineExceeded   — the run was stopped cooperatively before it
//                        finished: an armed deadline expired, or a stop was
//                        requested (SIGINT, ThreadPool::stop()). The work
//                        that was interrupted may have checkpointed; the
//                        message says where. Exit code 6.
//
// Concrete errors derive from the std exception the pre-taxonomy code threw
// (logic_error for contracts, runtime_error otherwise) *and* from the
// rgleak::Error mixin, so `catch (const std::exception&)`, the historical
// `catch (const NumericalError&)` sites, and taxonomy-aware
// `catch (const rgleak::Error&)` handlers all keep working.

#include <cstddef>
#include <stdexcept>
#include <string>

namespace rgleak {

enum class ErrorCode {
  kContract,
  kNumerical,
  kParse,
  kIo,
  kConfig,
  kDeadline,
  kResource,
  kCrash,
};

/// Short stable name for an error code ("contract", "numerical", "parse",
/// "io", "config", "deadline", "resource", "crash"); used by error reports
/// and logs.
const char* error_code_name(ErrorCode code);

/// The documented CLI exit code for an error class: 2 = usage/config,
/// 3 = parse, 4 = numerical, 5 = io, 6 = deadline/cancelled,
/// 8 = resource (over memory budget / allocation failure),
/// 9 = crash (a sandboxed job child died on a signal or without a result),
/// 1 = contract (internal bug).
int exit_code_for(ErrorCode code);

/// Maps a CLI exit code back to its error class; false for codes with no
/// taxonomy meaning (0, 7, 126, ...). The subprocess supervisor uses this to
/// reconstruct a typed error from a sandboxed child that exited cleanly but
/// died before writing its result record.
bool error_code_for_exit(int exit_code, ErrorCode& out);

/// Mixin carried by every typed rgleak error alongside its std exception
/// base. Catch `const rgleak::Error&` to handle all taxonomy errors
/// uniformly; `message()` repeats what() so handlers need not cross-cast.
class Error {
 public:
  Error(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}
  virtual ~Error() = default;

  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

 private:
  ErrorCode code_;
  std::string message_;
};

/// Thrown when a documented precondition or invariant of the library is
/// violated. A caller bug, not bad input: front ends should ask for a report.
class ContractViolation : public std::logic_error, public Error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what), Error(ErrorCode::kContract, what) {}
};

/// Thrown when a numerical routine fails to converge, receives an
/// ill-conditioned problem, overflows, or violates a result post-condition.
class NumericalError : public std::runtime_error, public Error {
 public:
  explicit NumericalError(const std::string& what)
      : std::runtime_error(what), Error(ErrorCode::kNumerical, what) {}
};

/// Thrown on operating-system level file failures (open / read / write).
class IoError : public std::runtime_error, public Error {
 public:
  explicit IoError(const std::string& what)
      : std::runtime_error(what), Error(ErrorCode::kIo, what) {}
};

/// Thrown when well-formed input requests an unsupported configuration.
class ConfigError : public std::runtime_error, public Error {
 public:
  explicit ConfigError(const std::string& what)
      : std::runtime_error(what), Error(ErrorCode::kConfig, what) {}
};

/// Thrown when a run is stopped cooperatively before completing: an armed
/// deadline expired or a stop was requested (SIGINT, another thread). Not a
/// failure of the computation itself — partial work may have been
/// checkpointed, and the message names the interrupted site.
class DeadlineExceeded : public std::runtime_error, public Error {
 public:
  explicit DeadlineExceeded(const std::string& what)
      : std::runtime_error(what), Error(ErrorCode::kDeadline, what) {}
};

/// Thrown when a run cannot be granted the memory it needs: a job's
/// preflighted footprint exceeds the configured budget even at the floor of
/// the degradation ladder, a tracked reservation would overshoot the
/// process-wide MemoryBudget, or an arena allocation raised std::bad_alloc.
/// The message names the site and the bytes involved so operators can size
/// budgets from failures. Retryable in the batch service: a retry walks the
/// degradation ladder further down, and transient pressure may have cleared.
class ResourceError : public std::runtime_error, public Error {
 public:
  explicit ResourceError(const std::string& what)
      : std::runtime_error(what), Error(ErrorCode::kResource, what) {}
};

/// Thrown by the process-isolation supervisor when a sandboxed job child died
/// without delivering a result: killed by a signal (SIGSEGV, SIGABRT, SIGBUS,
/// the kernel OOM-killer's SIGKILL), or exited with a code that carries no
/// taxonomy meaning. The crash is contained to the job — the supervisor and
/// every other job keep running — and the message names the signal / exit
/// code plus a tail of the child's captured stderr. Retryable in the batch
/// service under a dedicated per-job crash cap (a crashing job gets fewer
/// retries than a merely flaky one).
class CrashError : public std::runtime_error, public Error {
 public:
  explicit CrashError(const std::string& what)
      : std::runtime_error(what), Error(ErrorCode::kCrash, what) {}
};

/// Thrown on malformed input text. what() reads
/// "source:line:column: message (near 'token')" so editors and humans can
/// jump straight to the failure; the structured fields are also exposed for
/// machine-readable reporting.
class ParseError : public std::runtime_error, public Error {
 public:
  ParseError(std::string source, std::size_t line, std::size_t column, const std::string& message,
             std::string token = "");

  /// Source name: a path, or "<stream>" for in-memory parses.
  const std::string& source() const { return source_; }
  /// 1-based line of the failure (0 when unknown, e.g. unexpected EOF
  /// position reported at the last line read).
  std::size_t line() const { return line_; }
  /// 1-based column of the offending token; 0 when the whole line is at
  /// fault.
  std::size_t column() const { return column_; }
  /// The offending token, if one was isolated.
  const std::string& token() const { return token_; }

 private:
  std::string source_;
  std::size_t line_;
  std::size_t column_;
  std::string token_;
};

/// Renders a taxonomy error as a single-line JSON object:
///   {"error":"parse","exit_code":3,"message":"...","source":"...",
///    "line":12,"column":7,"token":"NAND"}
/// (location fields only for ParseError). Strings are JSON-escaped.
std::string error_json(const Error& error);

/// Renders an untyped exception the same way, as {"error":"internal",...}.
std::string error_json(const std::exception& error);

/// Reports the exception being handled (call it from a catch block) on
/// stderr — the one-line error_json record when `json_errors` is set, an
/// "error: ..." line otherwise, with a please-report note for contract
/// violations — and returns its exit code: the taxonomy's for typed errors,
/// 8 for std::bad_alloc, 1 for anything else.
int report_current_exception(bool json_errors);

/// Installs a std::terminate handler of last resort: any exception that slips
/// past main's catch blocks (a throwing destructor during unwinding, a
/// detached thread, a noexcept violation) is rendered to stderr — as the
/// one-line error_json record when `json_errors` is set, as a plain
/// "error: ..." line otherwise — and the process _exits with the taxonomy
/// exit code instead of aborting with no report. Call once, early in main.
void install_terminate_handler(bool json_errors);

}  // namespace rgleak
