// perfbench: the rgleak benchmark binary.
//
//   perfbench --workload mc-validate|plan-batch|table1-signoff --seed N
//             --seconds S --trace 0|1 --workdir DIR
//   perfbench --dump-inputs DIR --seed N    (write every generated input)
//   perfbench --self-test                   (checkers, replay fidelity)
//
// A workload run prints `# key: value` detail lines (run context first), then
// the result as one JSON line: {"correct", "attempted", "failed", "metrics"},
// with the end-to-end metrics untraced and the per-layer metrics traced.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>
#include <thread>

#include "checks.h"
#include "charlib/io.h"
#include "netlist/io.h"
#include "setup.h"
#include "util/format.h"
#include "util/metrics.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

int usage_error(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  return 2;
}

std::string bytes_text(long v) {
  return v > 0 ? std::to_string(v / 1024) + " KiB" : "unknown";
}

void print_context(const Options& o) {
  std::printf("# workload: %s\n# seed: %llu\n# seconds: %s\n# trace: %d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed),
              rgleak::util::format_double(o.seconds, 6).c_str(), o.trace ? 1 : 0);
  std::printf("# nproc: %u\n# threads: %zu\n", std::thread::hardware_concurrency(), kThreads);
  std::printf("# l2_cache: %s\n# l3_cache: %s\n",
              bytes_text(sysconf(_SC_LEVEL2_CACHE_SIZE)).c_str(),
              bytes_text(sysconf(_SC_LEVEL3_CACHE_SIZE)).c_str());
  std::printf("# build_type: %s\n# compiler: %s\n", PERFBENCH_BUILD_TYPE, __VERSION__);
}

// Prints the result line: every catalogue metric of the run's kind. A metric
// the workload exercises must have been measured; the others read 0.
bool print_result(const Options& o, const Report& rep) {
  for (const auto& [k, v] : rep.details) std::printf("# %s: %s\n", k.c_str(), v.c_str());
  if (o.trace) {
    // Cross-check: the library's own always-on histograms over the whole run.
    for (const auto& [name, h] : rgleak::util::metrics::Registry::instance().snapshot().histograms)
      std::printf("# registry %s: count %llu, sum %s ms\n", name.c_str(),
                  static_cast<unsigned long long>(h.count),
                  rgleak::util::format_double(h.sum, 6).c_str());
  }
  std::string metrics;
  bool complete = true;
  for (const MetricSpec& spec : metric_catalogue()) {
    if (spec.end_to_end == o.trace) continue;
    const auto it = rep.metrics.find(spec.name);
    const bool exercised = std::find(spec.workloads.begin(), spec.workloads.end(),
                                     o.workload) != spec.workloads.end();
    const bool measured = it != rep.metrics.end() && it->second.set;
    if (exercised != measured) {
      std::fprintf(stderr, "perfbench: metric %s is %s on %s\n", spec.name,
                   exercised ? "missing" : "unexpected", o.workload.c_str());
      complete = false;
    }
    const double value = measured ? it->second.value : 0.0;
    if (!std::isfinite(value)) complete = false;
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + std::string(spec.name) + "\": {\"value\": " +
               rgleak::util::format_double(value, 17) + ", \"unit\": \"" + spec.unit + "\"}";
  }
  if (!complete) return false;
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {%s}}\n",
              rep.failed == 0 && rep.attempted > 0 ? "true" : "false", rep.attempted,
              rep.failed, metrics.c_str());
  return true;
}

int dump_inputs(const std::string& dir, std::uint64_t seed) {
  Tracer off(false);
  const Corner bench = make_corner("bench", 0.0, std::nullopt, off);
  rgleak::charlib::save_characterization(*bench.chars, dir + "/bench.rgchar");
  const McDesign mc = make_mc_design(*bench.library, seed);
  rgleak::netlist::save_netlist(*mc.netlist, dir + "/mc-validate.rgnl");
  std::vector<std::string> lines;
  for (const PlanJob& job : make_plan_jobs(*bench.library, seed))
    lines.push_back(manifest_line(job, "lib.rgchar"));
  write_lines(dir + "/plan-batch.jsonl", lines);
  for (const SignoffDesign& d : make_signoff_designs(*bench.library, seed, off))
    rgleak::netlist::save_netlist(*d.netlist,
                                  dir + "/table1-signoff-" + d.netlist->name() + ".rgnl");
  return 0;
}

// Feeds every checker right and deliberately wrong answers; each wrong one
// must count as a failed operation. Also checks that the traced
// characterization replay reproduces characterize_analytic exactly.
int self_test() {
  std::printf("deliberately wrong answers report 'check FAILED' on stderr\n");
  int bad = 0;
  const auto expect = [&](const char* what, std::size_t failed, std::size_t want) {
    const bool ok = failed == want;
    std::printf("%-52s failed %zu, expected %zu: %s\n", what, failed, want, ok ? "ok" : "WRONG");
    if (!ok) ++bad;
  };

  {  // MC against exact.
    rgleak::math::Rng rng(11);
    std::vector<double> samples(4000);
    for (double& x : samples) x = std::exp(rng.normal(0.0, 0.4));  // right-skewed
    const auto [m, s] = sample_moments(samples);
    const double k = sample_kurtosis(samples);
    Report rep;
    rep.check(check_mc(samples, m, s, m, s, k).ok, "exact = samples");
    rep.check(check_mc(samples, m, s, m * 1.001, s * 1.001, k).ok, "within noise");
    expect("mc: right answers", rep.failed, 0);
    Report wrong;
    wrong.check(check_mc(samples, m, s, m, s * 1.2, k).ok, "perturbed sigma");
    wrong.check(check_mc(samples, m, s, m * 1.1, s, k).ok, "perturbed mean");
    wrong.check(check_mc(samples, m, s * 1.01, m, s, k).ok, "sigma not the samples'");
    wrong.check(check_mc(samples, std::nan(""), s, m, s, k).ok, "NaN mean");
    wrong.check(check_mc(samples, m, s, m, s, std::nan("")).ok, "NaN kurtosis");
    expect("mc: wrong answers", wrong.failed, 5);
  }
  {  // Sign-off RG against exact.
    rgleak::core::LeakageEstimate exact, rg;
    exact.mean_na = rg.mean_na = 1.0e6;
    exact.sigma_na = 1.0e5;
    rg.sigma_na = 1.01e5;
    std::string why;
    Report rep;
    rep.check(check_signoff(rg, exact, signoff_sigma_band("c432"), &why), why);
    rgleak::core::LeakageEstimate close = rg;
    close.sigma_na = 1.0001e5;
    rep.check(check_signoff(close, exact, signoff_sigma_band("c7552@256"), &why), why);
    expect("signoff: right answers", rep.failed, 0);
    Report wrong;
    rgleak::core::LeakageEstimate bad_sigma = rg, bad_mean = rg;
    bad_sigma.sigma_na = 1.05e5;
    bad_mean.mean_na *= 1.0 + 1e-6;
    wrong.check(check_signoff(bad_sigma, exact, signoff_sigma_band("c432"), &why), why);
    wrong.check(check_signoff(bad_mean, exact, signoff_sigma_band("c432"), &why), why);
    // 1 % passes on c432 but is far outside a 256^2 design's band.
    wrong.check(check_signoff(rg, exact, signoff_sigma_band("c5315@256"), &why), why);
    expect("signoff: wrong answers", wrong.failed, 3);
  }
  {  // Batch job against the journal.
    using rgleak::service::JobOutput;
    using rgleak::service::JobRecord;
    using rgleak::service::JobStatus;
    JobOutput out;
    out.mean_na = 123.456;
    out.sigma_na = 7.89;
    JobRecord rec;
    rec.id = "j";
    rec.status = JobStatus::kSucceeded;
    rec.mean_na = out.mean_na;
    rec.sigma_na = out.sigma_na;
    std::map<std::string, JobRecord> journal{{"j", rec}};
    std::string why;
    Report rep;
    rep.check(check_job("j", &out, journal, &why), why);
    expect("batch: right answer", rep.failed, 0);
    Report wrong;
    auto flipped = journal;
    flipped["j"].sigma_na = std::nextafter(out.sigma_na, 0.0);
    wrong.check(check_job("j", &out, flipped, &why), why);
    JobOutput degraded = out;
    degraded.degradation = "mem: linear->integral_polar";
    wrong.check(check_job("j", &degraded, journal, &why), why);
    JobOutput nan = out;
    nan.sigma_na = std::nan("");
    wrong.check(check_job("j", &nan, journal, &why), why);
    auto failed = journal;
    failed["j"].status = JobStatus::kFailed;
    wrong.check(check_job("j", &out, failed, &why), why);
    wrong.check(check_job("j", nullptr, journal, &why), why);
    wrong.check(check_job("j", &out, {}, &why), why);
    expect("batch: wrong answers", wrong.failed, 6);
  }
  {  // The Harrell-Davis median: exact on a symmetric sample, and between two
     // clusters where the plain median sits on one of them.
    std::vector<double> clusters(120, 50.0);
    std::fill(clusters.begin() + 59, clusters.end(), 90.0);  // plain median 90
    const double across = harrell_davis(clusters, 0.5);
    const double symmetric = harrell_davis({1.0, 2.0, 3.0, 4.0, 5.0}, 0.5);
    const bool ok = std::abs(symmetric - 3.0) < 1e-9 && across > 60.0 && across < 80.0;
    expect("harrell-davis median", ok ? 0 : 1, 0);
  }
  {  // The traced characterization replay is the characterizer.
    const rgleak::cells::StdCellLibrary lib = rgleak::cells::build_mini_library();
    Tracer tracer(true);
    const auto replay = characterize_replay(lib, bench_process(), tracer);
    const auto plain = rgleak::charlib::characterize_analytic(lib, bench_process());
    std::size_t mismatches = 0;
    for (std::size_t c = 0; c < lib.size(); ++c)
      for (std::size_t s = 0; s < plain.cell(c).states.size(); ++s)
        if (replay.cell(c).states[s].mean_na != plain.cell(c).states[s].mean_na ||
            replay.cell(c).states[s].sigma_na != plain.cell(c).states[s].sigma_na)
          ++mismatches;
    expect("characterization replay vs characterize_analytic", mismatches, 0);
  }
  std::printf("self-test: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  std::string dump_dir;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) return usage_error("missing value for " + arg);
    const std::string val = argv[++i];
    double num = 0.0;
    if (arg == "--workload") {
      o.workload = val;
    } else if (arg == "--seed") {
      if (!rgleak::util::parse_double(val, num) || num < 0 || num != std::floor(num))
        return usage_error("--seed expects a non-negative integer");
      o.seed = static_cast<std::uint64_t>(num);
    } else if (arg == "--seconds") {
      if (!rgleak::util::parse_double(val, num) || !(num > 0.0))
        return usage_error("--seconds expects a positive number");
      o.seconds = num;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return usage_error("--trace expects 0 or 1");
      o.trace = val == "1";
    } else if (arg == "--workdir") {
      o.workdir = val;
    } else if (arg == "--dump-inputs") {
      dump_dir = val;
    } else {
      return usage_error("unknown argument " + arg);
    }
  }
  try {
    if (self) return self_test();
    if (!dump_dir.empty()) return dump_inputs(dump_dir, o.seed);
    if (o.workdir.empty()) return usage_error("--workdir is required");
    Report (*run)(const Options&) = nullptr;
    if (o.workload == "mc-validate") run = run_mc_validate;
    if (o.workload == "plan-batch") run = run_plan_batch;
    if (o.workload == "table1-signoff") run = run_table1_signoff;
    if (run == nullptr) return usage_error("unknown workload '" + o.workload + "'");
    print_context(o);
    const Report rep = run(o);
    std::fflush(stdout);
    return print_result(o, rep) ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
