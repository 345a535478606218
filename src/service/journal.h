#pragma once
// Crash-only batch journal.
//
// One JSONL record per *terminal* job outcome (succeeded / failed / shed),
// preceded by a magic header line. There is no "in progress" state and no
// recovery procedure: a job that was mid-flight when the process was
// SIGKILL'd simply has no record and is re-run on resume (jobs are
// deterministic for fixed inputs, so at-least-once execution is safe), while
// a job with a record is never re-run and never duplicated.
//
// The file is append-only: an append is one write() of the record's line to
// an O_APPEND descriptor and one fdatasync, so it costs one record whatever
// the journal's length. A process killed mid-write leaves at most one torn
// line, the last one, and a torn line has no trailing newline: open()
// truncates it away and its job re-runs. Every complete line is verified
// (CRC trailer, strict parse), and a bad one anywhere refuses the journal.
// That is what makes the journal crash-only: the recovery path IS the
// normal open path.
//
// The contract covers the death of the process (SIGKILL, a crash) at any
// instant: the kernel keeps every write() it has accepted. It does not cover
// a power loss during an append whose fdatasync has not returned: the disk
// may then hold the file's new length but only part of the record's bytes,
// a complete last line that fails its CRC. open() refuses it like any other
// bad line, and the batch resumes only once that line is removed by hand.
//
// Append failures (disk full, injected io failpoints) do not kill the batch:
// the record stays in memory and the failure is counted (the batch summary
// reports it). The next append, or flush(), heals the file: it truncates it
// to the last length known to be good and re-appends every record still
// missing. The cost of a lost append is bounded and safe — at worst a
// completed job re-runs after a crash.

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "service/job.h"

namespace rgleak::service {

class Journal {
 public:
  /// In-memory journal (no persistence); what you get for an empty path.
  Journal() = default;
  ~Journal();

  /// Movable so open() can return by value (a fresh mutex; the source must
  /// not be in concurrent use, which open-time construction guarantees).
  Journal(Journal&& other) noexcept;
  Journal& operator=(Journal&&) = delete;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Opens `path` for appending and loads its records. A missing or empty
  /// file becomes a fresh journal: its header line is written here. A torn
  /// final line (no trailing newline) is an append that did not finish: it
  /// is truncated away. Throws IoError when the file cannot be opened, read
  /// or written, and a located ParseError when a complete line is malformed.
  ///
  /// Single-writer: open() takes an exclusive advisory flock on the journal
  /// file itself (appends keep its inode) and holds it for the Journal's
  /// lifetime. A second batch targeting the same journal fails fast with an
  /// IoError, instead of the two batches interleaving their appends.
  static Journal open(const std::string& path);

  /// True when `id` already has a terminal record (job must not re-run).
  bool has(const std::string& id) const;

  /// Records loaded at open time plus those appended since, by job id.
  std::map<std::string, JobRecord> records() const;
  std::size_t size() const;

  /// Appends a terminal record: one write of its line (rendered before the
  /// lock is taken) and one fdatasync. Thread-safe. A persistence failure is
  /// absorbed (see header) and counted; the in-memory record is kept either
  /// way. A second record for an id the journal holds is a
  /// ContractViolation.
  void append(const JobRecord& rec);

  /// Persistence failures absorbed so far.
  std::size_t write_failures() const;

  /// Heals the file after absorbed failures (see header); a no-op when every
  /// record is persisted. Throws on failure.
  void flush();

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  mutable std::mutex mutex_;
  std::map<std::string, JobRecord> records_;
  std::vector<std::string> order_;  // append order, for stable files
  std::size_t write_failures_ = 0;
  int fd_ = -1;                  // the journal file (O_APPEND), holding the flock; -1 = in memory
  std::uint64_t good_bytes_ = 0;  // file length holding the header and order_[0, persisted_)
  std::size_t persisted_ = 0;     // records of order_ known to be in the file

  void persist_locked(const std::string& newest_line);
};

}  // namespace rgleak::service
