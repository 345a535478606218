#include "util/trace.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <vector>

#include "util/crc32.h"
#include "util/error.h"
#include "util/format.h"

namespace rgleak::util::trace {

namespace {

// The armed trace target. Plain atomics only: a forked child inherits both
// the descriptor and the counter state and keeps appending safely (O_APPEND),
// and no lock can be left held across fork by another thread.
std::atomic<int> g_fd{-1};
std::atomic<std::uint64_t> g_seq{0};
std::atomic<bool> g_env_checked{false};

// Current span nesting per thread. Inherited by forked children (fork clones
// the calling thread's stack), which is exactly what parents child phase
// spans to the supervisor-side attempt span.
thread_local std::vector<std::string> t_stack;

std::vector<std::string>& stack() { return t_stack; }

void check_env_once() {
  if (g_env_checked.load(std::memory_order_acquire)) return;
  g_env_checked.store(true, std::memory_order_release);
  if (g_fd.load(std::memory_order_relaxed) >= 0) return;
  const char* path = std::getenv("RGLEAK_TRACE");
  if (path == nullptr || path[0] == '\0') return;
  const int fd = ::open(path, O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return;
  int expected = -1;
  if (!g_fd.compare_exchange_strong(expected, fd, std::memory_order_acq_rel)) ::close(fd);
}

std::int64_t steady_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(tp.time_since_epoch()).count();
}

}  // namespace

void open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0)
    throw IoError("trace: cannot open '" + path + "': " + std::strerror(errno));
  const int old = g_fd.exchange(fd, std::memory_order_acq_rel);
  if (old >= 0) ::close(old);
  g_env_checked.store(true, std::memory_order_release);
}

void close() {
  const int old = g_fd.exchange(-1, std::memory_order_acq_rel);
  if (old >= 0) ::close(old);
}

bool enabled() {
  check_env_once();
  return g_fd.load(std::memory_order_acquire) >= 0;
}

Span::Span(std::string_view name, std::string_view job, int attempt) {
  if (!enabled()) return;
  active_ = true;
  name_ = name;
  job_ = job;
  attempt_ = attempt;
  uncaught_ = std::uncaught_exceptions();
  // Span ids are "<pid>:<seq>". getpid() at construction, not a cached
  // value: a span created after fork must carry the child's pid so ids stay
  // unique across the supervisor and its sandboxed children (both inherit
  // the same seq counter state).
  id_ = std::to_string(static_cast<long>(::getpid())) + ':' +
        std::to_string(g_seq.fetch_add(1, std::memory_order_relaxed));
  auto& st = stack();
  if (!st.empty()) parent_ = st.back();
  st.push_back(id_);
  start_ = std::chrono::steady_clock::now();
}

void Span::set_outcome(std::string_view outcome) { outcome_ = outcome; }

Span::~Span() {
  if (!active_) return;
  const auto end = std::chrono::steady_clock::now();
  auto& st = stack();
  // Pop this span (normally the top; be tolerant if an intermediate frame
  // skipped destruction, e.g. after a longjmp-style exit path).
  for (std::size_t i = st.size(); i > 0; --i) {
    if (st[i - 1] == id_) {
      st.erase(st.begin() + static_cast<std::ptrdiff_t>(i - 1), st.end());
      break;
    }
  }
  const int fd = g_fd.load(std::memory_order_acquire);
  if (fd < 0) return;
  std::string out = "{\"span\":";
  append_json_string(out, id_);
  out += ",\"parent\":";
  append_json_string(out, parent_);
  out += ",\"name\":";
  append_json_string(out, name_);
  out += ",\"job\":";
  append_json_string(out, job_);
  out += ",\"attempt\":";
  out += std::to_string(attempt_);
  out += ",\"t_ns\":";
  out += std::to_string(steady_ns(start_));
  out += ",\"wall_ns\":";
  out += std::to_string(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_).count());
  out += ",\"outcome\":";
  if (!outcome_.empty())
    append_json_string(out, outcome_);
  else
    append_json_string(out, std::uncaught_exceptions() > uncaught_ ? "error" : "ok");
  out += '}';
  add_crc_trailer(out);  // same integrity trailer as journal records
  out += '\n';
  // One write() on an O_APPEND fd: concurrent writers (threads AND forked
  // children) interleave whole lines, never shear them. A failed or short
  // write drops the span — tracing never takes down the run.
  (void)!::write(fd, out.data(), out.size());
}

}  // namespace rgleak::util::trace
