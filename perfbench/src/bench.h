#pragma once
// Shared harness for the rgleak benchmark: timing, order statistics, the
// benchmark-side span recorder used by traced runs, the metric catalogue the
// result line is checked against, and per-repetition scratch directories.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_since(Clock::time_point t0) { return 1e3 * seconds_since(t0); }

/// Median of `v` (0 when empty).
double median(std::vector<double> v);

/// Linear-interpolated quantile q in [0, 1] (0 when empty).
double quantile(std::vector<double> v, double q);

/// Harrell-Davis estimate of the q-quantile of `v`: the mean of the order
/// statistics weighted by a Beta((n + 1) q, (n + 1)(1 - q)) kernel (Harrell
/// and Davis, Biometrika 1982). Where the samples fall in clusters with gaps
/// between them, it moves smoothly as samples cross a gap, while the plain
/// median jumps across it (0 when empty).
double harrell_davis(std::vector<double> v, double q);

/// A latency summary: the median (Harrell-Davis) and one fixed upper
/// percentile, with the sample count and how many samples lie beyond that
/// percentile.
struct Tail {
  double p50 = 0.0;
  double percentile = 0.0;  ///< e.g. 75 for p75
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail tail_summary(const std::vector<double>& v, double percentile);
/// The summary at the highest whole percentile of `v` that has at least
/// `min_beyond` samples above it.
Tail highest_tail(const std::vector<double>& v, std::size_t min_beyond);

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// Benchmark-side span recorder for traced runs. Spans (name, layer, start,
/// end, parent) stay in memory; nothing inside the library is instrumented.
/// Disabled recorders hand out inert scopes, so untraced code paths can share
/// the traced code. Single-threaded: spans come from the driving thread.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    std::string layer;
    double start_ms = 0.0;
    double end_ms = 0.0;
    int parent = -1;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  /// Opens a span nested under the innermost open span.
  Scope span(const std::string& name, const std::string& layer);

  /// Total duration of every span named `name`, ms, and their count.
  double total_ms(const std::string& name) const;
  std::size_t count(const std::string& name) const;
  /// Self time (duration minus the part covered by direct children) summed
  /// per layer, ms.
  std::map<std::string, double> self_ms_by_layer() const;
  /// Root spans' summed duration, ms.
  double root_ms() const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  bool set = false;
};

/// Everything one workload run reports.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Key/value details printed before the result line (run context, the
  /// percentile behind a tail metric, computed working sets, ...).
  std::vector<std::pair<std::string, std::string>> details;

  void set(const std::string& name, double value);
  void detail(const std::string& key, const std::string& value);
  void detail(const std::string& key, double value);
  /// Counts one checked operation; prints the reason of a failed check.
  void check(bool ok, const std::string& what);
};

/// The metric catalogue, in BENCHMARK.json order. `workloads` lists the
/// workloads that exercise the metric; elsewhere it is reported as 0.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool end_to_end;
  std::vector<std::string> workloads;
};
const std::vector<MetricSpec>& metric_catalogue();

/// Creates a fresh directory `<root>/<prefix>-<n>` (n increments per call).
std::string fresh_dir(const std::string& root, const std::string& prefix);
/// Removes a directory tree; errors are ignored (scratch only).
void remove_tree(const std::string& path);
/// Size of a regular file in bytes (0 when missing).
std::uint64_t file_bytes(const std::string& path);

/// Deterministic 64-bit mix of a seed and a stream tag.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

}  // namespace perfbench
