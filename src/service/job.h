#pragma once
// Batch job specifications and outcome records.
//
// A manifest is JSONL: one job per line, e.g.
//
//   {"id":"c432-mc","kind":"mc","lib":"corner.rgchar","netlist":"c432.rgnl",
//    "trials":200,"seed":7,"threads":2}
//
// "id" (unique) and "kind" are required; every other key is a kind-specific
// parameter, tabled and read by service/params.h. Unknown kinds and bad
// parameters are *job* failures (ConfigError, permanent), not manifest
// failures — a batch isolates them instead of dying.
//
// A JobRecord is the terminal outcome of one job: succeeded with an estimate,
// failed with a structured error (the error_json rendering of the final
// attempt's taxonomy error), or shed by the queue's load-shed policy. Records
// are what the journal persists and what `rgleak batch` reports.

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace rgleak::service {

struct JobSpec {
  std::string id;
  std::string kind;
  /// Kind-specific parameters, raw JSON scalars (numbers keep their literal
  /// spelling; executors parse them with typed checks).
  std::map<std::string, std::string> params;
  /// 1-based manifest line, for diagnostics.
  std::size_t line = 0;
};

enum class JobStatus {
  kSucceeded,  ///< executor returned a result
  kFailed,     ///< every allowed attempt failed; `error` holds the last error
  kShed,       ///< dropped by the queue's load-shed policy, never executed
};

const char* job_status_name(JobStatus status);

struct JobRecord {
  std::string id;
  JobStatus status = JobStatus::kFailed;
  /// Execution attempts consumed (0 for shed jobs).
  int attempts = 0;
  /// Wall time across all attempts, ms (backoff sleeps excluded).
  double wall_ms = 0.0;
  // Success payload.
  double mean_na = 0.0;
  double sigma_na = 0.0;
  /// Estimator rung / engine that answered ("exact_fft", "linear", "mc", ...).
  std::string method;
  /// Non-empty when a budget moved the job off its request: the ladder's
  /// trail (JobOutput::degradation), e.g. "mem: exact_fft->linear" or
  /// "mem: mc threads 8->2".
  std::string degradation;
  /// Progress heartbeats observed across all attempts (RunControl::beats);
  /// 0 when heartbeat tracking was off. Diagnostic for stall post-mortems.
  std::uint64_t beats = 0;
  /// For kFailed / kShed: the one-line error_json rendering of the failure.
  std::string error;
};

/// Parses a JSONL manifest. Throws located ParseError on malformed JSON,
/// a missing/empty "id" or "kind", or a duplicate id. Blank lines and
/// '#'-prefixed comment lines are skipped.
std::vector<JobSpec> parse_manifest(std::istream& is, const std::string& source);

/// Loads a manifest file. Throws IoError when unreadable.
std::vector<JobSpec> load_manifest(const std::string& path);

/// One journal line for `rec` (no trailing newline).
std::string journal_record_json(const JobRecord& rec);

/// Parses one journal record line. Throws located ParseError.
JobRecord parse_journal_record(const std::string& text, const std::string& source,
                               std::size_t line);

}  // namespace rgleak::service
