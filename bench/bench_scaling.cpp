// Complexity claims of section 3: runtime scaling of the estimators —
// O(n^2) exact pairwise baseline (serial and thread-pool tiled), the
// O(K n log n) FFT exact path (K Hermite series orders), O(n)
// distance-histogram (eq. 17), and O(1) integration (eqs 20/25), plus the
// batch journal's per-append cost — using google-benchmark.
//
// `bench_scaling --exact-json[=PATH]` skips google-benchmark and instead
// records the exact-estimator perf trajectory to BENCH_exact_estimator.json:
// the host's CPU count, then per (sites, method) the best wall time of N
// runs with the median and worst beside it, the speedup vs the serial direct
// baseline, peak RSS, and the per-method MemoryBudget high-water mark (the
// arena the method reserves). `rgleak netlist --cost-model` calibrates its
// time laws from these records.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/estimators.h"
#include "netlist/random_circuit.h"
#include "placement/placement.h"
#include "service/journal.h"

namespace {

using namespace rgleak;

netlist::UsageHistogram bench_usage() {
  const auto& lib = bench::library();
  netlist::UsageHistogram u;
  u.alphas.assign(lib.size(), 0.0);
  u.alphas[lib.index_of("INV_X1")] = 0.4;
  u.alphas[lib.index_of("NAND2_X1")] = 0.4;
  u.alphas[lib.index_of("NOR2_X1")] = 0.2;
  return u;
}

const core::RandomGate& bench_rg() {
  static const core::RandomGate rg(bench::chars_analytic(), bench_usage(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  return rg;
}

placement::Floorplan square(std::size_t side) {
  placement::Floorplan fp;
  fp.rows = fp.cols = side;
  fp.site_w_nm = fp.site_h_nm = 1500.0;
  return fp;
}

netlist::Netlist bench_netlist(std::size_t side) {
  math::Rng rng(1);
  return netlist::generate_random_circuit(bench::library(), bench_usage(), side * side, rng);
}

void BM_ExactPairwise(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const netlist::Netlist nl = bench_netlist(side);
  const placement::Placement pl(&nl, square(side));
  const core::ExactEstimator exact(bench::chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  const core::ExactOptions opts{core::ExactMethod::kDirect, 1};
  for (auto _ : state) benchmark::DoNotOptimize(exact.estimate(pl, opts));
  state.SetComplexityN(static_cast<long long>(side * side));
}
BENCHMARK(BM_ExactPairwise)->RangeMultiplier(2)->Range(8, 64)->Complexity();

void BM_ExactPairwiseParallel(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const netlist::Netlist nl = bench_netlist(side);
  const placement::Placement pl(&nl, square(side));
  const core::ExactEstimator exact(bench::chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  const core::ExactOptions opts{core::ExactMethod::kDirect, 0};  // hardware threads
  for (auto _ : state) benchmark::DoNotOptimize(exact.estimate(pl, opts));
  state.SetComplexityN(static_cast<long long>(side * side));
}
BENCHMARK(BM_ExactPairwiseParallel)->RangeMultiplier(2)->Range(8, 128)->Complexity();

void BM_ExactFft(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const netlist::Netlist nl = bench_netlist(side);
  const placement::Placement pl(&nl, square(side));
  const core::ExactEstimator exact(bench::chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  const core::ExactOptions opts{core::ExactMethod::kFft, 0};
  for (auto _ : state) benchmark::DoNotOptimize(exact.estimate(pl, opts));
  state.SetComplexityN(static_cast<long long>(side * side));
}
BENCHMARK(BM_ExactFft)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_LinearHistogram(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const placement::Floorplan fp = square(side);
  const core::RandomGate& rg = bench_rg();  // characterize outside the timed loop
  for (auto _ : state) benchmark::DoNotOptimize(core::estimate_linear(rg, fp));
  state.SetComplexityN(static_cast<long long>(side * side));
}
BENCHMARK(BM_LinearHistogram)->RangeMultiplier(2)->Range(8, 512)->Complexity();

void BM_IntegralRect(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const placement::Floorplan fp = square(side);
  const core::RandomGate& rg = bench_rg();
  for (auto _ : state) benchmark::DoNotOptimize(core::estimate_integral_rect(rg, fp));
  state.SetComplexityN(static_cast<long long>(side * side));
}
BENCHMARK(BM_IntegralRect)->RangeMultiplier(4)->Range(8, 2048)->Complexity();

void BM_IntegralPolar(benchmark::State& state) {
  const auto side = static_cast<std::size_t>(state.range(0));
  const placement::Floorplan fp = square(side);
  const core::RandomGate& rg = bench_rg();
  for (auto _ : state) benchmark::DoNotOptimize(core::estimate_integral_polar(rg, fp));
  state.SetComplexityN(static_cast<long long>(side * side));
}
BENCHMARK(BM_IntegralPolar)->RangeMultiplier(4)->Range(8, 2048)->Complexity();

void BM_JournalAppend(benchmark::State& state) {
  // One batch's worth of terminal records into a fresh file journal: the
  // time per append should not grow with the journal (one write + one
  // fdatasync each).
  const auto records = static_cast<std::size_t>(state.range(0));
  const std::string path =
      (std::filesystem::temp_directory_path() / "rgleak_bench_journal.jsonl").string();
  service::JobRecord rec;
  rec.status = service::JobStatus::kSucceeded;
  rec.attempts = 1;
  rec.mean_na = 1.2345678901234567e6;
  rec.sigma_na = 4.5e4;
  rec.method = "linear";
  for (auto _ : state) {
    state.PauseTiming();
    std::remove(path.c_str());
    service::Journal journal = service::Journal::open(path);
    state.ResumeTiming();
    for (std::size_t i = 0; i < records; ++i) {
      rec.id = "job-" + std::to_string(i);
      journal.append(rec);
    }
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * records));
}
BENCHMARK(BM_JournalAppend)->Arg(120)->Arg(480)->Arg(1920)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_Characterization(benchmark::State& state) {
  // Cost of the one-time analytic characterization of the full library.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        charlib::characterize_analytic(bench::library(), bench::bench_process()));
  }
}
BENCHMARK(BM_Characterization)->Unit(benchmark::kMillisecond)->Iterations(1);

// --- the exact-estimator perf record ---------------------------------------

// Best, median and worst wall time of `reps` runs, ms.
struct Timing {
  double best, median, worst;
};

Timing wall_ms(const std::function<core::LeakageEstimate()>& run, int reps,
               core::LeakageEstimate* out) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    *out = run();
    const auto t1 = std::chrono::steady_clock::now();
    ms.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2], ms.back()};
}

int exact_bench_json(const std::string& path) {
  const core::ExactEstimator exact(bench::chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f, "{\n  \"bench\": \"exact_estimator\",\n  \"cpus\": %u,\n  \"records\": [\n",
               std::thread::hardware_concurrency());
  bool first = true;
  for (const std::size_t side : {16, 32, 64, 128}) {
    const netlist::Netlist nl = bench_netlist(side);
    const placement::Placement pl(&nl, square(side));
    const std::size_t n = side * side;
    const int reps = n <= 4096 ? 7 : 3;

    // reset_peak between methods: the exact estimators release their arena
    // charges after each run, so the per-method high-water mark isolates
    // that method's footprint.
    auto& budget = util::MemoryBudget::process();
    core::LeakageEstimate serial, parallel, fft;
    budget.reset_peak();
    const Timing t_serial = wall_ms(
        [&] { return exact.estimate(pl, {core::ExactMethod::kDirect, 1}); }, reps, &serial);
    const std::uint64_t b_serial = budget.peak();
    budget.reset_peak();
    const Timing t_parallel = wall_ms(
        [&] { return exact.estimate(pl, {core::ExactMethod::kDirect, 0}); }, reps, &parallel);
    const std::uint64_t b_parallel = budget.peak();
    budget.reset_peak();
    const Timing t_fft = wall_ms(
        [&] { return exact.estimate(pl, {core::ExactMethod::kFft, 0}); }, reps, &fft);
    const std::uint64_t b_fft = budget.peak();

    const double rel_err = std::abs(fft.sigma_na - serial.sigma_na) / serial.sigma_na;
    const struct {
      const char* method;
      Timing ms;
      double sigma_rel_err;
      std::uint64_t budget_bytes;
    } rows[] = {{"direct_serial", t_serial, 0.0, b_serial},
                {"direct_parallel", t_parallel,
                 std::abs(parallel.sigma_na - serial.sigma_na) / serial.sigma_na, b_parallel},
                {"fft", t_fft, rel_err, b_fft}};
    for (const auto& r : rows) {
      std::fprintf(f, "%s    {\"sites\": %zu, \"method\": \"%s\", \"reps\": %d, "
                      "\"wall_ms\": %.4f, \"median_ms\": %.4f, \"worst_ms\": %.4f, "
                      "\"speedup\": %.2f, \"sigma_rel_err\": %.3e, "
                      "\"peak_rss_kb\": %.0f, \"budget_peak_bytes\": %llu}",
                   first ? "" : ",\n", n, r.method, reps, r.ms.best, r.ms.median, r.ms.worst,
                   t_serial.best / r.ms.best, r.sigma_rel_err, bench::peak_rss_kb(),
                   static_cast<unsigned long long>(r.budget_bytes));
      first = false;
    }
    std::printf("sites %6zu  direct %10.2f ms  parallel %10.2f ms (%.1fx)  "
                "fft %8.2f ms (%.1fx)  fft rel err %.2e\n",
                n, t_serial.best, t_parallel.best, t_serial.best / t_parallel.best, t_fft.best,
                t_serial.best / t_fft.best, rel_err);
  }
  std::fprintf(f, "\n  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--exact-json", 0) == 0) {
      std::string path = "BENCH_exact_estimator.json";
      if (const auto eq = arg.find('='); eq != std::string::npos) path = arg.substr(eq + 1);
      return exact_bench_json(path);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
