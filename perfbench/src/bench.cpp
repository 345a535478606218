#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "util/format.h"

namespace perfbench {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double harrell_davis(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const double a = q * (n + 1.0), b = (1.0 - q) * (n + 1.0);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  // Order statistic i weighs the kernel's mass on [i/n, (i+1)/n], taken by
  // the midpoint rule and normalised over all of [0, 1].
  constexpr int kSteps = 64;
  double sum = 0.0, total = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    double w = 0.0;
    for (int k = 0; k < kSteps; ++k) {
      const double t = (static_cast<double>(i) + (k + 0.5) / kSteps) / n;
      w += std::exp((a - 1.0) * std::log(t) + (b - 1.0) * std::log1p(-t) - log_beta);
    }
    sum += w * v[i];
    total += w;
  }
  return sum / total;
}

Tail tail_summary(const std::vector<double>& v, double percentile) {
  Tail t;
  t.p50 = harrell_davis(v, 0.5);
  t.percentile = percentile;
  t.value = quantile(v, percentile / 100.0);
  t.samples = v.size();
  t.beyond = static_cast<std::size_t>(
      std::count_if(v.begin(), v.end(), [&](double x) { return x > t.value; }));
  return t;
}

Tail highest_tail(const std::vector<double>& v, std::size_t min_beyond) {
  for (double p = 99.0; p > 50.0; p -= 1.0) {
    const Tail t = tail_summary(v, p);
    if (t.beyond >= min_beyond) return t;
  }
  return tail_summary(v, 50.0);
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - tracer_->origin_).count();
  tracer_->open_.pop_back();
}

Tracer::Scope Tracer::span(const std::string& name, const std::string& layer) {
  if (!enabled_) return Scope(nullptr, -1);
  SpanRecord r;
  r.name = name;
  r.layer = layer;
  r.parent = open_.empty() ? -1 : open_.back();
  r.start_ms = std::chrono::duration<double, std::milli>(Clock::now() - origin_).count();
  spans_.push_back(std::move(r));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

double Tracer::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.name == name) total += s.end_ms - s.start_ms;
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  return static_cast<std::size_t>(std::count_if(
      spans_.begin(), spans_.end(), [&](const SpanRecord& s) { return s.name == name; }));
}

std::map<std::string, double> Tracer::self_ms_by_layer() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.end_ms - s.start_ms;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i)
    out[spans_[i].layer] += spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  return out;
}

double Tracer::root_ms() const {
  double total = 0.0;
  for (const SpanRecord& s : spans_)
    if (s.parent < 0) total += s.end_ms - s.start_ms;
  return total;
}

void Report::set(const std::string& name, double value) {
  Metric& m = metrics[name];
  m.value = value;
  m.set = true;
}

void Report::detail(const std::string& key, const std::string& value) {
  details.emplace_back(key, value);
}

void Report::detail(const std::string& key, double value) {
  details.emplace_back(key, rgleak::util::format_double(value, 6));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "check FAILED: %s\n", what.c_str());
  }
}

const std::vector<MetricSpec>& metric_catalogue() {
  const std::string mc = "mc-validate", plan = "plan-batch", signoff = "table1-signoff";
  static const std::vector<MetricSpec> specs = {
      // End to end: every workload.
      {"ops_per_s", "1/s", true, {mc, plan, signoff}},
      {"op_p50_ms", "ms", true, {mc, plan, signoff}},
      {"op_tail_ms", "ms", true, {mc, plan, signoff}},
      {"setup_s", "s", true, {mc, plan, signoff}},
      {"peak_rss_mb", "MiB", true, {mc, plan, signoff}},
      // Per layer.
      {"process.field_us", "us", false, {mc}},
      {"process.sampler_build_ms", "ms", false, {mc}},
      {"process.embed_points", "count", false, {mc}},
      {"process.field_bytes", "bytes", false, {mc}},
      {"charlib.eval_ns", "ns", false, {mc}},
      {"mc.build_ms", "ms", false, {mc}},
      {"mc.trial_us", "us", false, {mc}},
      {"mc.self_us", "us", false, {mc}},
      {"mc.checkpoint_ms", "ms", false, {mc}},
      {"mc.checkpoint_bytes", "bytes", false, {mc}},
      {"mc.scaling_eff", "ratio", false, {mc}},
      {"core.random_gate_ms", "ms", false, {plan, signoff}},
      {"core.linear_ms", "ms", false, {plan, signoff}},
      {"core.integral_rect_ms", "ms", false, {plan}},
      {"core.integral_polar_ms", "ms", false, {plan}},
      {"core.polar_fallback_frac", "ratio", false, {plan}},
      {"core.exact_fft_ms", "ms", false, {signoff}},
      {"core.exact_pairgrid_ms", "ms", false, {signoff}},
      {"core.exact_type_pairs", "count", false, {signoff}},
      {"service.execute_ms", "ms", false, {plan}},
      {"service.self_ms_per_job", "ms", false, {plan}},
      {"service.journal_append_ms", "ms", false, {plan}},
      {"service.journal_bytes", "bytes", false, {plan}},
      {"service.retries", "count", false, {plan}},
      {"charlib.characterize_ms", "ms", false, {mc, plan, signoff}},
      {"charlib.fit_ms", "ms", false, {mc, plan, signoff}},
      {"cells.leakage_us", "us", false, {mc, plan, signoff}},
      {"cells.leakage_calls", "count", false, {mc, plan, signoff}},
      {"netlist.generate_ms", "ms", false, {mc, signoff}},
      {"self.cells_ms", "ms", false, {mc, plan, signoff}},
      {"self.charlib_ms", "ms", false, {mc, plan, signoff}},
      {"self.math_ms", "ms", false, {mc, plan, signoff}},
      {"self.netlist_ms", "ms", false, {mc, signoff}},
      {"self.process_ms", "ms", false, {mc}},
      {"self.mc_ms", "ms", false, {mc}},
      {"self.core_ms", "ms", false, {plan, signoff}},
      {"self.service_ms", "ms", false, {plan}},
      {"unattributed_ms", "ms", false, {mc, plan, signoff}},
      {"trace_overhead_ms", "ms", false, {mc, plan, signoff}},
  };
  return specs;
}

std::string fresh_dir(const std::string& root, const std::string& prefix) {
  static int counter = 0;
  const std::filesystem::path dir =
      std::filesystem::path(root) / (prefix + "-" + std::to_string(counter++));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

std::uint64_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 finalizer over the pair.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
