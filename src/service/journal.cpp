#include "service/journal.h"

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

#include "util/atomic_file.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::service {

namespace {
constexpr std::string_view kMagic = "rgbatch-journal-v1";

[[noreturn]] void throw_io(const std::string& what, const std::string& path) {
  throw IoError(what + ": " + path + " (" + std::strerror(errno) + ")");
}

std::string read_all(int fd, const std::string& path) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) throw_io("cannot stat journal", path);
  std::string text(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t got = 0;
  while (got < text.size()) {
    const ssize_t n = ::pread(fd, text.data() + got, text.size() - got, static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw_io("cannot read journal", path);
    if (n == 0) break;  // shrank under us; what was read is what there is
    got += static_cast<std::size_t>(n);
  }
  text.resize(got);
  return text;
}

void write_all(int fd, std::string_view bytes, const std::string& path) {
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throw_io("cannot append to journal", path);
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

void truncate_and_sync(int fd, std::uint64_t length, const std::string& path) {
  if (::ftruncate(fd, static_cast<off_t>(length)) != 0) throw_io("cannot truncate journal", path);
  if (::fdatasync(fd) != 0) throw_io("cannot sync journal", path);
}

}  // namespace

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);  // releases the flock
}

Journal::Journal(Journal&& other) noexcept
    : path_(std::move(other.path_)),
      records_(std::move(other.records_)),
      order_(std::move(other.order_)),
      write_failures_(other.write_failures_),
      fd_(std::exchange(other.fd_, -1)),
      good_bytes_(other.good_bytes_),
      persisted_(other.persisted_) {}

Journal Journal::open(const std::string& path) {
  Journal j;
  j.path_ = path;
  if (path.empty()) return j;
  j.fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (j.fd_ < 0) throw_io("cannot open journal", path);
  // flock releases on close, including process death, so a SIGKILL'd batch
  // never leaves a stale lock.
  if (::flock(j.fd_, LOCK_EX | LOCK_NB) != 0)
    throw IoError("journal '" + path +
                  "' is already open in another batch (its writer lock is held); two writers "
                  "would lose each other's records");

  const std::string text = read_all(j.fd_, path);
  const std::string header = std::string(kMagic) + '\n';
  const auto not_a_journal = [&](const std::string& line) {
    return ParseError(path, 1, 0,
                      "not a batch journal (wanted header '" + std::string(kMagic) + "')", line);
  };
  // Complete lines end in '\n'. Whatever follows the last one is a torn
  // append: it is dropped below, once line 1 has shown this is a journal.
  const std::size_t end = text.rfind('\n') == std::string::npos ? 0 : text.rfind('\n') + 1;
  if (end == 0) {
    // No complete line: an empty file, or a header whose write was torn.
    // Anything else is some other file, which must not be overwritten.
    if (!header.starts_with(text)) throw not_a_journal(text);
    truncate_and_sync(j.fd_, 0, path);
    write_all(j.fd_, header, path);
    if (::fdatasync(j.fd_) != 0) throw_io("cannot sync journal", path);
    util::sync_parent_directory(path);  // the file may be new
    j.good_bytes_ = header.size();
    return j;
  }
  if (!text.starts_with(header)) throw not_a_journal(text.substr(0, text.find('\n')));
  std::size_t lineno = 1;
  for (std::size_t pos = header.size(); pos < end;) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    ++lineno;
    if (line.empty()) continue;
    JobRecord rec = parse_journal_record(line, path, lineno);
    if (j.records_.count(rec.id))
      throw ParseError(path, lineno, 0, "duplicate journal record for job", rec.id);
    j.order_.push_back(rec.id);
    j.records_.emplace(rec.id, std::move(rec));
  }
  if (end < text.size()) truncate_and_sync(j.fd_, end, path);
  j.good_bytes_ = end;
  j.persisted_ = j.order_.size();
  return j;
}

bool Journal::has(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.count(id) > 0;
}

std::map<std::string, JobRecord> Journal::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::size_t Journal::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void Journal::append(const JobRecord& rec) {
  const std::string line = journal_record_json(rec) + '\n';
  std::lock_guard<std::mutex> lock(mutex_);
  RGLEAK_REQUIRE(records_.count(rec.id) == 0,
                 "the journal already holds a record for job '" + rec.id + "'");
  order_.push_back(rec.id);
  records_.emplace(rec.id, rec);
  if (fd_ < 0) return;
  try {
    persist_locked(line);
  } catch (const std::exception&) {
    // Absorbed: the batch must outlive a flaky disk. The in-memory record is
    // kept; the next successful append (or flush) persists it too.
    ++write_failures_;
  }
}

std::size_t Journal::write_failures() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failures_;
}

void Journal::flush() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (fd_ < 0 || persisted_ == order_.size()) return;
  persist_locked(std::string());
}

// Brings the file up to order_. When only the newest record is missing, that
// is one write of `newest_line`; after an absorbed failure (or from flush,
// which passes no line) the file is cut back to its last good length, which
// drops whatever a failed write left, and every missing record is written.
void Journal::persist_locked(const std::string& newest_line) {
  RGLEAK_FAILPOINT("service.journal.append");
  std::string missing;
  if (persisted_ + 1 != order_.size() || newest_line.empty()) {
    if (::ftruncate(fd_, static_cast<off_t>(good_bytes_)) != 0)
      throw_io("cannot truncate journal", path_);
    for (std::size_t i = persisted_; i < order_.size(); ++i)
      missing += journal_record_json(records_.at(order_[i])) + '\n';
  }
  const std::string& bytes = missing.empty() ? newest_line : missing;
  write_all(fd_, bytes, path_);
  RGLEAK_FAILPOINT("service.journal.sync");
  if (::fdatasync(fd_) != 0) throw_io("cannot sync journal", path_);
  good_bytes_ += bytes.size();
  persisted_ = order_.size();
}

}  // namespace rgleak::service
