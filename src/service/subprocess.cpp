#include "service/subprocess.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "service/jsonio.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/format.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/require.h"

#if !defined(_WIN32)
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fcntl.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

namespace rgleak::service {

#if defined(_WIN32)

bool subprocess_supported() { return false; }

JobOutput run_job_in_subprocess(Executor&, const JobSpec&, util::RunControl*, int,
                                const SubprocessOptions&) {
  throw ConfigError("process isolation (--isolate=process) is not supported on this platform");
}

#else  // POSIX

namespace {

// ---------------------------------------------------------------------------
// Shared-memory heartbeat counter: one MAP_SHARED page holding the atomic the
// child's RunControl mirrors beats into and the parent-side watchdog adopts.
// std::atomic<uint64_t> is lock-free here (asserted), so the cross-process
// aliasing is plain atomic loads/stores on both sides.
class SharedBeatCounter {
 public:
  SharedBeatCounter() {
    void* page = ::mmap(nullptr, sizeof(std::atomic<std::uint64_t>), PROT_READ | PROT_WRITE,
                        MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (page == MAP_FAILED) throw IoError("subprocess: cannot map shared heartbeat page");
    counter_ = new (page) std::atomic<std::uint64_t>(0);
    static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                  "shared-memory heartbeats need a lock-free atomic");
  }
  ~SharedBeatCounter() {
    if (counter_ != nullptr) ::munmap(counter_, sizeof(std::atomic<std::uint64_t>));
  }
  SharedBeatCounter(const SharedBeatCounter&) = delete;
  SharedBeatCounter& operator=(const SharedBeatCounter&) = delete;

  std::atomic<std::uint64_t>* counter() { return counter_; }

 private:
  std::atomic<std::uint64_t>* counter_ = nullptr;
};

struct Pipe {
  int read_fd = -1;
  int write_fd = -1;

  Pipe() {
    int fds[2];
    if (::pipe(fds) != 0) throw IoError("subprocess: cannot create pipe");
    read_fd = fds[0];
    write_fd = fds[1];
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void close_read() {
    if (read_fd >= 0) ::close(read_fd);
    read_fd = -1;
  }
  void close_write() {
    if (write_fd >= 0) ::close(write_fd);
    write_fd = -1;
  }
};

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

// Keeps the tail of a byte stream: crash diagnostics (the assert message, the
// "failpoint ... injected segv" line) are at the end of a child's output.
struct CaptureTail {
  std::string data;
  std::size_t limit;

  void feed(const char* buf, std::size_t n) {
    data.append(buf, n);
    if (data.size() > limit) data.erase(0, data.size() - limit);
  }
};

// Drains whatever `fd` has ready into `sink` without blocking. Returns false
// once the write side is closed and the pipe is empty (EOF).
template <typename Sink>
bool drain(int fd, Sink&& sink) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n > 0) {
      sink(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // treat read errors as EOF; classification uses waitpid
  }
}

void write_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    return;  // parent gone; nothing useful left to do with the report
  }
}

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGXCPU: return "SIGXCPU";
    case SIGINT: return "SIGINT";
    default: return "signal";
  }
}

bool error_code_from_name(const std::string& name, ErrorCode& out) {
  if (name == "contract") out = ErrorCode::kContract;
  else if (name == "numerical") out = ErrorCode::kNumerical;
  else if (name == "parse") out = ErrorCode::kParse;
  else if (name == "io") out = ErrorCode::kIo;
  else if (name == "config") out = ErrorCode::kConfig;
  else if (name == "deadline") out = ErrorCode::kDeadline;
  else if (name == "resource") out = ErrorCode::kResource;
  else if (name == "crash") out = ErrorCode::kCrash;
  else return false;
  return true;
}

// Synthesizes the typed error for a child that exited with a taxonomy code
// but no result record (e.g. an `exit:3` failpoint): same retry
// classification as the in-process throw would have had.
[[noreturn]] void throw_typed(ErrorCode code, const std::string& msg) {
  switch (code) {
    case ErrorCode::kContract: throw ContractViolation(msg);
    case ErrorCode::kNumerical: throw NumericalError(msg);
    case ErrorCode::kParse: throw ParseError("<child>", 0, 0, msg);
    case ErrorCode::kIo: throw IoError(msg);
    case ErrorCode::kConfig: throw ConfigError(msg);
    case ErrorCode::kDeadline: throw DeadlineExceeded(msg);
    case ErrorCode::kResource: throw ResourceError(msg);
    case ErrorCode::kCrash: throw CrashError(msg);
  }
  throw CrashError(msg);
}

std::string tail_suffix(const CaptureTail& tail) {
  if (tail.data.empty()) return "";
  // Single-line rendering for error messages and journal records.
  std::string flat = tail.data;
  for (char& c : flat)
    if (c == '\n' || c == '\r') c = ' ';
  return "; child output tail: '" + flat + "'";
}

// ---------------------------------------------------------------------------
// Child side. Everything below the fork runs with exactly one thread; it must
// end in _exit (never return, never unwind into the batch loop, never run the
// parent's static destructors).

util::RunControl* g_child_control = nullptr;

extern "C" void child_on_term(int) {
  // request_stop touches only lock-free atomics: async-signal-safe.
  if (g_child_control != nullptr) g_child_control->request_stop(util::StopReason::kCancelled);
}

void apply_rlimits(const SubprocessOptions& opts) {
  if (opts.cpu_limit_s > 0) {
    rlimit rl{};
    rl.rlim_cur = static_cast<rlim_t>(opts.cpu_limit_s);
    rl.rlim_max = static_cast<rlim_t>(opts.cpu_limit_s + 1);  // SIGXCPU, then SIGKILL
    ::setrlimit(RLIMIT_CPU, &rl);
  }
  if (opts.as_limit_bytes > 0) {
    rlimit rl{};
    rl.rlim_cur = static_cast<rlim_t>(opts.as_limit_bytes);
    rl.rlim_max = static_cast<rlim_t>(opts.as_limit_bytes);
    ::setrlimit(RLIMIT_AS, &rl);
  }
  if (!opts.allow_core) {
    rlimit rl{};  // rlim_cur = rlim_max = 0
    ::setrlimit(RLIMIT_CORE, &rl);
  }
}

// The fields every child record ends with. `metrics` is the child-side
// registry delta (metrics::Registry::encode_delta against the snapshot taken
// at job start) and `mem_peak_bytes` the child's MemoryBudget peak; they ride
// the result record so the parent can fold sandboxed work and memory into its
// own aggregates. Parents that predate a field ignore unknown keys, so the
// record stays backward/forward compatible.
std::string child_record_tail(const std::string& metrics) {
  std::string tail;
  if (!metrics.empty()) tail += ",\"metrics\":" + util::json_string(metrics);
  tail += ",\"mem_peak_bytes\":" + std::to_string(util::MemoryBudget::process().peak());
  return tail + "}\n";
}

std::string child_ok_record(const JobOutput& out, const std::string& metrics) {
  std::ostringstream os;
  // util::format_double, not stream insertion: the child inherits the
  // parent's locale, and a decimal comma here would tear the result record.
  os << "{\"ok\":true,\"mean_na\":" << util::format_double(out.mean_na, 17)
     << ",\"sigma_na\":" << util::format_double(out.sigma_na, 17);
  if (!out.method.empty()) os << ",\"method\":" << util::json_string(out.method);
  if (!out.degradation.empty()) os << ",\"degradation\":" << util::json_string(out.degradation);
  return os.str() + child_record_tail(metrics);
}

std::string child_error_record(const char* code, const std::string& message,
                               const std::string& json, const std::string& metrics) {
  std::ostringstream os;
  os << "{\"ok\":false,\"code\":\"" << code << "\",\"message\":" << util::json_string(message)
     << ",\"json\":" << util::json_string(json);
  return os.str() + child_record_tail(metrics);
}

[[noreturn]] void run_child(Executor& executor, const JobSpec& job, int degrade, int result_fd,
                            int capture_fd, std::atomic<std::uint64_t>* shared_beats,
                            double remaining_deadline_s, const SubprocessOptions& opts) {
  // The child's stdout/stderr become the capture pipe: printf chatter from
  // engines, assert messages, and sanitizer reports all land where the
  // supervisor can attach them to the failure record.
  ::dup2(capture_fd, STDOUT_FILENO);
  ::dup2(capture_fd, STDERR_FILENO);
  ::close(capture_fd);
  apply_rlimits(opts);

  static util::RunControl control;  // static: outlives the signal handler race
  g_child_control = &control;
  std::signal(SIGTERM, child_on_term);
  std::signal(SIGINT, SIG_IGN);  // a terminal ^C is the supervisor's call
  control.mirror_beats_to(shared_beats);
  if (std::isfinite(remaining_deadline_s)) control.arm_budget(remaining_deadline_s);

  // Metrics recorded in the sandbox would die with it: snapshot the forked
  // registry now (it carries the parent's counts) and ship only the delta on
  // the result record, whatever the outcome.
  const util::metrics::Snapshot metrics_base = util::metrics::Registry::instance().snapshot();
  auto metrics_delta = [&metrics_base] {
    return util::metrics::Registry::instance().encode_delta(metrics_base);
  };

  std::string record;
  int exit_code = 0;
  try {
    // Job-carried fault injection, armed in the sandbox only: this is how the
    // crash matrix drives SIGSEGV/SIGABRT/exit through one job at a time
    // without arming anything in the supervisor.
    const auto fp = job.params.find("failpoint");
    if (fp != job.params.end()) util::Failpoints::arm_specs(fp->second);

    const JobOutput out = executor.execute(job, &control, degrade);
    record = child_ok_record(out, metrics_delta());
  } catch (const Error& e) {
    record = child_error_record(error_code_name(e.code()), e.message(), error_json(e),
                                metrics_delta());
    exit_code = exit_code_for(e.code());
  } catch (const std::exception& e) {
    record = child_error_record("internal", e.what(), error_json(e), metrics_delta());
    exit_code = 1;
  } catch (...) {
    record = child_error_record("internal", "unknown exception",
                                "{\"error\":\"internal\",\"exit_code\":1,"
                                "\"message\":\"unknown exception\"}",
                                metrics_delta());
    exit_code = 1;
  }
  write_all(result_fd, record);
  std::fflush(nullptr);  // push captured stdio through the pipe before dying
  ::_exit(exit_code);
}

}  // namespace

bool subprocess_supported() { return true; }

JobOutput run_job_in_subprocess(Executor& executor, const JobSpec& job,
                                util::RunControl* watchdog, int degrade,
                                const SubprocessOptions& options) {
  RGLEAK_REQUIRE(watchdog != nullptr, "subprocess execution needs an attempt watchdog");

  SharedBeatCounter beats;
  Pipe result;
  Pipe capture;
  const double remaining_s = watchdog->remaining_s();

  // The registry lock is held across fork so the single-threaded child can
  // never inherit a failpoint mutex locked by a vanished parent thread. (The
  // only other locks parent threads take in process mode guard the journal,
  // which the child never touches; glibc orders its own malloc locks around
  // fork internally.)
  auto failpoint_lock = util::Failpoints::hold_for_fork();
  const pid_t pid = ::fork();
  if (pid == 0) {
    failpoint_lock.unlock();  // the forking thread owns the child's copy
    result.close_read();
    capture.close_read();
    run_child(executor, job, degrade, result.write_fd, capture.write_fd, beats.counter(),
              remaining_s, options);  // never returns
  }
  failpoint_lock.unlock();
  if (pid < 0) throw IoError("subprocess: fork failed for job '" + job.id + "': " +
                             std::strerror(errno));

  result.close_write();
  capture.close_write();
  set_nonblocking(result.read_fd);
  set_nonblocking(capture.read_fd);
  watchdog->adopt_beats_from(beats.counter());
  // The shared page dies with this frame, but the watchdog (and the stall
  // monitor sampling it) outlives us: fold-and-detach on every exit path.
  struct DetachGuard {
    util::RunControl* w;
    ~DetachGuard() { w->detach_beat_source(); }
  } detach_guard{watchdog};

  std::string result_text;
  CaptureTail tail{std::string(), options.capture_limit};
  bool term_sent = false;
  bool kill_sent = false;
  auto term_time = std::chrono::steady_clock::time_point{};

  int status = 0;
  for (;;) {
    bool result_open = drain(result.read_fd, [&](const char* b, std::size_t n) {
      if (result_text.size() < (1u << 20)) result_text.append(b, n);
    });
    bool capture_open = drain(capture.read_fd, [&](const char* b, std::size_t n) {
      tail.feed(b, n);
    });

    // Stop propagation: first a cooperative SIGTERM (the child's handler
    // requests a stop; engines drain within one chunk and report), then a
    // SIGKILL once the grace period is spent on a child that will not die.
    // stop_pending, NOT should_stop: this loop polls on the child's behalf,
    // and beating here would feed the stall monitor a fake heartbeat for a
    // wedged child.
    if (!kill_sent && watchdog->stop_pending()) {
      const auto now = std::chrono::steady_clock::now();
      if (!term_sent) {
        ::kill(pid, SIGTERM);
        term_sent = true;
        term_time = now;
      } else if (std::chrono::duration<double>(now - term_time).count() >=
                 options.term_grace_s) {
        ::kill(pid, SIGKILL);
        kill_sent = true;
      }
    }

    const pid_t w = ::waitpid(pid, &status, WNOHANG);
    if (w == pid) break;
    if (w < 0 && errno != EINTR) {
      status = 0;  // ECHILD: someone reaped our child — classify as a crash
      break;
    }

    if (result_open || capture_open) {
      pollfd fds[2];
      nfds_t nfds = 0;
      if (result_open) fds[nfds++] = {result.read_fd, POLLIN, 0};
      if (capture_open) fds[nfds++] = {capture.read_fd, POLLIN, 0};
      ::poll(fds, nfds, 20);
    } else {
      // Both pipes are at EOF but the child is not reaped yet: it is in
      // _exit. A short sleep instead of a poll that would return instantly.
      ::usleep(2000);
    }
  }
  // The child is reaped; collect everything still buffered in the pipes.
  drain(result.read_fd, [&](const char* b, std::size_t n) {
    if (result_text.size() < (1u << 20)) result_text.append(b, n);
  });
  drain(capture.read_fd, [&](const char* b, std::size_t n) { tail.feed(b, n); });

  // --- Classification -------------------------------------------------------
  const std::string prefix = "job '" + job.id + "': sandboxed child ";

  // A complete result record wins even over a stop request (same
  // completed-job-wins semantics as in-process mode).
  const auto newline = result_text.find('\n');
  if (newline != std::string::npos) {
    JsonObject obj;
    bool parsed = true;
    try {
      obj = parse_json_object(result_text.substr(0, newline), "<child result>", 1);
    } catch (const ParseError&) {
      parsed = false;  // torn record: fall through to crash classification
    }
    if (parsed && obj.count("ok")) {
      // Fold sandboxed-side metrics (trial counts, phase timings) into this
      // process's registry before any classification can throw.
      if (const auto it = obj.find("metrics"); it != obj.end())
        util::metrics::Registry::instance().merge_delta(it->second);
      std::uint64_t mem_peak = 0;
      if (const auto it = obj.find("mem_peak_bytes");
          it != obj.end() && util::parse_int(it->second, mem_peak))
        util::MemoryBudget::process().raise_peak(mem_peak);
      if (obj["ok"] == "true") {
        JobOutput out;
        double mean = 0.0;
        double sigma = 0.0;
        if (!obj.count("mean_na") || !obj.count("sigma_na") ||
            !util::parse_double(obj["mean_na"], mean) ||
            !util::parse_double(obj["sigma_na"], sigma))
          throw CrashError(prefix + "returned a malformed result record" + tail_suffix(tail));
        out.mean_na = mean;
        out.sigma_na = sigma;
        if (const auto it = obj.find("method"); it != obj.end()) out.method = it->second;
        if (const auto it = obj.find("degradation"); it != obj.end())
          out.degradation = it->second;
        return out;
      }
      const std::string code_name = obj.count("code") ? obj["code"] : "internal";
      const std::string message =
          obj.count("message") ? obj["message"] : "child reported an unnamed failure";
      const std::string json = obj.count("json") ? obj["json"] : std::string();
      ErrorCode code;
      if (error_code_from_name(code_name, code)) throw ChildReportedError(code, message, json);
      throw ChildForeignError(message, json);
    }
  }

  // No (usable) result record: the child died. The watchdog's verdict takes
  // precedence when the parent is the one who shot it.
  if (WIFSIGNALED(status)) {
    const int sig = WTERMSIG(status);
    if ((term_sent && sig == SIGTERM) || (kill_sent && sig == SIGKILL))
      throw watchdog->make_error("service.subprocess");
    std::ostringstream os;
    os << prefix << "killed by " << signal_name(sig) << " (signal " << sig << ")";
    if (sig == SIGKILL) os << " — possibly the kernel OOM-killer";
    if (sig == SIGXCPU) os << " — CPU rlimit exhausted";
    os << tail_suffix(tail);
    throw CrashError(os.str());
  }
  if (term_sent || kill_sent) throw watchdog->make_error("service.subprocess");

  const int code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  ErrorCode taxonomy;
  if (code > 0 && error_code_for_exit(code, taxonomy)) {
    std::ostringstream os;
    os << prefix << "exited with code " << code << " (" << error_code_name(taxonomy)
       << ") without a result record" << tail_suffix(tail);
    throw_typed(taxonomy, os.str());
  }
  std::ostringstream os;
  os << prefix << "exited with code " << code << " without a result record" << tail_suffix(tail);
  throw CrashError(os.str());
}

#endif  // POSIX

ChildReportedError::ChildReportedError(ErrorCode code, const std::string& message,
                                       std::string json)
    : std::runtime_error(message), Error(code, message), ChildReport(std::move(json)) {}

ChildForeignError::ChildForeignError(const std::string& message, std::string json)
    : std::runtime_error(message), ChildReport(std::move(json)) {}

}  // namespace rgleak::service
