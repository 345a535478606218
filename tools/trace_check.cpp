// trace_check — validator for --trace JSONL span files (FORMATS.md,
// trace-span-v1).
//
// Spans are emitted at destruction, so a file lists children BEFORE their
// parents; validation is therefore two-pass: load every record, then resolve
// parent references and check interval containment. All timestamps are
// steady-clock nanoseconds, comparable across the supervisor and its forked
// children (same host, same CLOCK_MONOTONIC epoch), which is what makes the
// cross-process nesting check possible at all.
//
// Checks, in order:
//   * every line parses as a flat JSON object with the required fields;
//   * the crc trailer verifies (same convention as journal records: CRC32 of
//     the record as rendered without the crc field);
//   * span ids are unique;
//   * wall_ns >= 0 and t_ns > 0;
//   * every non-empty parent ref resolves to a span in the file;
//   * a child's [t_ns, t_ns + wall_ns] interval lies within its parent's;
//   * per process, start timestamps are monotone in span-sequence order
//     (with a small slack: the sequence fetch and the clock read in the Span
//     constructor are adjacent but not atomic, so a descheduled thread can
//     publish them slightly out of order).
//
// Exit 0 on pass, 1 on any violation (each reported on stderr), 2 on usage.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "service/jsonio.h"
#include "util/crc32.h"
#include "util/error.h"
#include "util/format.h"

namespace {

using rgleak::service::JsonObject;
using rgleak::service::parse_json_object;
using rgleak::util::parse_int;

struct SpanRec {
  std::string id;
  std::string parent;
  std::string name;
  std::int64_t t_ns = 0;
  std::int64_t wall_ns = 0;
  std::size_t line = 0;
  long pid = 0;
  std::uint64_t seq = 0;
};

// Clock-vs-sequence publication slack for the per-process monotonicity check
// (see header comment). 100ms is far above any realistic deschedule window
// between two adjacent loads, far below any real clock defect.
constexpr std::int64_t kMonotoneSlackNs = 100'000'000;

// Splits "<pid>:<seq>".
bool parse_span_id(const std::string& id, long& pid, std::uint64_t& seq) {
  const auto colon = id.find(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= id.size()) return false;
  std::int64_t p = 0;
  std::uint64_t q = 0;
  if (!parse_int(id.substr(0, colon), p) || p <= 0) return false;
  if (!parse_int(id.substr(colon + 1), q)) return false;
  pid = static_cast<long>(p);
  seq = q;
  return true;
}

int g_errors = 0;
constexpr int kMaxReported = 50;

void fail(std::size_t line, const std::string& msg) {
  if (++g_errors <= kMaxReported)
    std::fprintf(stderr, "trace_check: line %zu: %s\n", line, msg.c_str());
}

// Verifies and strips the crc trailer (the journal's, util/crc32.h).
bool check_crc(std::string& record, std::size_t line) {
  switch (rgleak::util::strip_crc_trailer(record)) {
    case rgleak::util::CrcTrailer::kOk: return true;
    case rgleak::util::CrcTrailer::kAbsent: fail(line, "missing crc trailer"); return false;
    case rgleak::util::CrcTrailer::kBad: break;
  }
  fail(line, "bad crc trailer (malformed, or record corrupt or truncated)");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::size_t min_spans = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-spans" && i + 1 < argc) {
      std::uint64_t n = 0;
      if (!parse_int(argv[++i], n)) {
        std::fprintf(stderr, "trace_check: bad --min-spans value\n");
        return 2;
      }
      min_spans = static_cast<std::size_t>(n);
    } else if (!arg.empty() && arg[0] != '-' && path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "usage: trace_check [--min-spans N] TRACE.jsonl\n");
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: trace_check [--min-spans N] TRACE.jsonl\n");
    return 2;
  }

  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "trace_check: cannot open '%s'\n", path.c_str());
    return 1;
  }

  // Pass 1: parse every record, verify self-contained properties.
  std::vector<SpanRec> spans;
  std::map<std::string, std::size_t> by_id;  // span id -> index into spans
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    if (!check_crc(line, lineno)) continue;
    JsonObject obj;
    try {
      obj = parse_json_object(line, path, lineno);
    } catch (const rgleak::Error& e) {
      fail(lineno, "not a JSON object: " + e.message());
      continue;
    }
    bool complete = true;
    for (const char* key :
         {"span", "parent", "name", "job", "attempt", "t_ns", "wall_ns", "outcome"}) {
      if (obj.find(key) == obj.end()) {
        fail(lineno, std::string("missing field \"") + key + "\"");
        complete = false;
      }
    }
    if (!complete) continue;
    SpanRec rec;
    rec.line = lineno;
    rec.id = obj.at("span");
    rec.parent = obj.at("parent");
    rec.name = obj.at("name");
    if (!parse_span_id(rec.id, rec.pid, rec.seq)) {
      fail(lineno, "span id is not \"<pid>:<seq>\": " + rec.id);
      continue;
    }
    if (rec.name.empty()) fail(lineno, "empty span name");
    if (obj.at("outcome").empty()) fail(lineno, "empty outcome");
    if (!parse_int(obj.at("t_ns"), rec.t_ns) || rec.t_ns <= 0)
      fail(lineno, "bad t_ns: " + obj.at("t_ns"));
    if (!parse_int(obj.at("wall_ns"), rec.wall_ns) || rec.wall_ns < 0)
      fail(lineno, "bad wall_ns: " + obj.at("wall_ns"));
    const auto [it, inserted] = by_id.emplace(rec.id, spans.size());
    if (!inserted) {
      fail(lineno, "duplicate span id " + rec.id + " (first at line " +
                       std::to_string(spans[it->second].line) + ")");
      continue;
    }
    spans.push_back(std::move(rec));
  }

  // Pass 2: parent resolution and interval containment. Children appear
  // before parents in the file, so this cannot run during pass 1.
  for (const SpanRec& s : spans) {
    if (s.parent.empty()) continue;
    const auto it = by_id.find(s.parent);
    if (it == by_id.end()) {
      fail(s.line, "parent " + s.parent + " of span " + s.id + " not in trace");
      continue;
    }
    const SpanRec& p = spans[it->second];
    if (s.t_ns < p.t_ns || s.t_ns + s.wall_ns > p.t_ns + p.wall_ns)
      fail(s.line, "span " + s.id + " [" + std::to_string(s.t_ns) + ", +" +
                       std::to_string(s.wall_ns) + "] escapes parent " + p.id + " [" +
                       std::to_string(p.t_ns) + ", +" + std::to_string(p.wall_ns) + "]");
  }

  // Pass 3: per-process monotone start timestamps in sequence order.
  std::map<long, std::vector<const SpanRec*>> by_pid;
  for (const SpanRec& s : spans) by_pid[s.pid].push_back(&s);
  for (auto& [pid, list] : by_pid) {
    std::sort(list.begin(), list.end(),
              [](const SpanRec* a, const SpanRec* b) { return a->seq < b->seq; });
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i]->t_ns + kMonotoneSlackNs < list[i - 1]->t_ns)
        fail(list[i]->line, "span " + list[i]->id + " starts before predecessor " +
                                list[i - 1]->id + " of the same process");
    }
  }

  if (spans.size() < min_spans) {
    std::fprintf(stderr, "trace_check: %zu spans, expected at least %zu\n", spans.size(),
                 min_spans);
    ++g_errors;
  }

  if (g_errors > 0) {
    if (g_errors > kMaxReported)
      std::fprintf(stderr, "trace_check: ... and %d more errors\n", g_errors - kMaxReported);
    std::fprintf(stderr, "trace_check: FAIL: %zu spans, %d errors\n", spans.size(), g_errors);
    return 1;
  }
  std::printf("trace_check: ok: %zu spans\n", spans.size());
  return 0;
}
