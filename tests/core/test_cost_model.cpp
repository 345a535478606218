// The per-rung cost model: pinned time predictions, from the built-in
// defaults and after calibration, the ladder's cost order (predicted and
// measured), the pinned arena formulas, and the calibration reader's
// refusals. The pins hold every prediction fixed, so a change to a default
// coefficient, a basis or the calibration rule shows up here. The
// calibration fixtures copy records from the checked-in BENCH files, so
// re-recording those files never moves the pins.

#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/estimators.h"
#include "netlist/random_circuit.h"
#include "util/error.h"

namespace rgleak::core {
namespace {

const std::string kCorpus = RGLEAK_COST_CORPUS_DIR;

constexpr std::size_t kSizes[] = {256, 4096, 16384, 65536};
constexpr double kInf = std::numeric_limits<double>::infinity();

struct RungPins {
  const char* rung;
  double ms[4];  // predict_ms at kSizes
};

void expect_pins(const CostModel& m, const std::vector<RungPins>& pins) {
  for (const RungPins& p : pins)
    for (std::size_t i = 0; i < 4; ++i)
      EXPECT_EQ(m.predict_ms(p.rung, kSizes[i]), p.ms[i]) << p.rung << " @ " << kSizes[i];
}

TEST(CostModel, DefaultPredictionsArePinned) {
  expect_pins(CostModel::defaults(),
              {
                  {"exact_direct",
                   {3.2768000000000002, 838.86080000000004, 13421.772800000001,
                    214748.36480000001}},
                  {"exact_fft",
                   {10.24, 245.75999999999999, 1146.8800000000001, 5242.8800000000001}},
                  {"linear",
                   {0.51200000000000001, 8.1920000000000002, 32.768000000000001, 131.072}},
                  {"integral_rect", {1, 1, 1, 1}},
                  {"integral_polar", {1, 1, 1, 1}},
                  {"mc", {kInf, kInf, kInf, kInf}},
              });
}

TEST(CostModel, DefaultTimeLawsDescendTheLadder) {
  // Stepping down from exact_fft to linear to an integral rung never predicts
  // a slower method, so a budgeted estimate that degrades saves time.
  const CostModel m = CostModel::defaults();
  for (const std::size_t sites : {std::size_t{1} << 10, std::size_t{1} << 14,
                                  std::size_t{1} << 16, std::size_t{1} << 20}) {
    const double linear = m.predict_ms("linear", sites);
    EXPECT_GE(m.predict_ms("exact_fft", sites), linear) << sites;
    EXPECT_GE(linear, m.predict_ms("integral_rect", sites)) << sites;
    EXPECT_GE(linear, m.predict_ms("integral_polar", sites)) << sites;
  }
}

// Fastest of three runs of `f`, in ms.
template <class F>
double min_of_3_ms(F&& f) {
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 3; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    f();
    best = std::min(best, std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
  }
  return best;
}

TEST(CostModel, MeasuredRungsDescendTheLadderAt256x256Sites) {
  // Coarse and host-independent: ratios of the same process's timings, each
  // the fastest of three runs, with a 4x margin per step. The exact rung runs
  // on one thread so that its cost does not depend on the host's core count.
  using rgleak::testing::mini_chars_analytic;
  using rgleak::testing::mini_library;
  netlist::UsageHistogram usage;
  usage.alphas.assign(mini_library().size(), 0.0);
  usage.alphas[mini_library().index_of("INV_X1")] = 0.4;
  usage.alphas[mini_library().index_of("NAND2_X1")] = 0.4;
  usage.alphas[mini_library().index_of("NOR2_X1")] = 0.2;
  placement::Floorplan fp;
  fp.rows = fp.cols = 256;
  fp.site_w_nm = fp.site_h_nm = 1500.0;
  math::Rng rng(1);
  const netlist::Netlist nl =
      netlist::generate_random_circuit(mini_library(), usage, fp.num_sites(), rng);
  const placement::Placement pl(&nl, fp);
  const ExactEstimator exact(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const RandomGate rg(mini_chars_analytic(), usage, 0.5, CorrelationMode::kAnalytic);

  const double fft =
      min_of_3_ms([&] { (void)exact.estimate(pl, {ExactMethod::kFft, 1}); });
  const double linear = min_of_3_ms([&] { (void)estimate_linear(rg, fp); });
  const double rect = min_of_3_ms([&] { (void)estimate_integral_rect(rg, fp); });
  const double polar = min_of_3_ms([&] { (void)estimate_integral_polar(rg, fp); });
  EXPECT_LE(linear, fft / 4.0) << "linear " << linear << " ms, exact_fft " << fft << " ms";
  EXPECT_LE(rect, linear / 4.0) << "integral_rect " << rect << " ms, linear " << linear << " ms";
  EXPECT_LE(polar, linear / 4.0) << "integral_polar " << polar << " ms, linear " << linear
                                 << " ms";
}

TEST(CostModel, BenchCalibratedPredictionsArePinned) {
  // wall_ms calibrates the time laws; direct_serial rows are ignored, and
  // "mc" gains no time law.
  expect_pins(CostModel::from_bench_json(kCorpus + "/bench_records.json"),
              {
                  {"exact_direct",
                   {0.2387, 61.107199999999999, 977.71519999999998, 15643.4432}},
                  {"exact_fft",
                   {0.32229999999999998, 7.735199999999999, 36.0976, 165.01759999999999}},
                  {"linear",
                   {0.51200000000000001, 8.1920000000000002, 32.768000000000001, 131.072}},
                  {"integral_rect", {1, 1, 1, 1}},
                  {"integral_polar", {1, 1, 1, 1}},
                  {"mc", {kInf, kInf, kInf, kInf}},
              });
}

TEST(CostModel, ExactArenaFormulasArePinned) {
  EXPECT_EQ(CostModel::exact_direct_bytes(100, 10, 10), 3216u);
  EXPECT_EQ(CostModel::exact_direct_bytes(65536, 256, 256), 2105344u);
  // The FFT path holds one transform grid (live rows x padded columns,
  // complex) and four per-offset tables, whatever the number of cell types.
  EXPECT_EQ(CostModel::exact_fft_bytes(8, 8), 4096u);
  EXPECT_EQ(CostModel::exact_fft_bytes(3, 7), 1440u);
  EXPECT_EQ(CostModel::exact_fft_bytes(128, 128), 1048576u);
  EXPECT_EQ(CostModel::exact_fft_bytes(256, 256), 4194304u);
}

TEST(CostModel, McWorkerArenaFormulaIsPinned) {
  // The bench grid (48x48 sites, one gate per site) in its 128x128
  // embedding and a non-square 12x30 grid in a 32x64 embedding. Re-pinned
  // when the workers began sharing one embedding: the sqrt-eigenvalue table
  // and the two FFT plans moved from the per-worker price into
  // mc_embedding_bytes, charged once per run, with the realized covariance
  // the check reads (one double per site).
  EXPECT_EQ(CostModel::mc_worker_bytes(128, 128, 48, 48, 2304), 406528u);
  EXPECT_EQ(CostModel::mc_worker_bytes(32, 64, 12, 30, 360), 52256u);
  EXPECT_EQ(CostModel::mc_embedding_bytes(128, 128, 48, 48), 154592u);
  EXPECT_EQ(CostModel::mc_embedding_bytes(32, 64, 12, 30), 21152u);
}

TEST(CostModel, MalformedRecordsAreLocatedParseErrors) {
  // Each fixture's second record (line 5) is bad: a missing wall_ms, a site
  // count that is NaN, negative, beyond size_t, or fractional, or a negative
  // wall time.
  for (const char* name : {"missing_wall_ms", "sites_nan", "sites_negative", "sites_huge",
                           "sites_fractional", "wall_ms_negative"}) {
    const std::string path = kCorpus + "/" + name + ".json";
    try {
      (void)CostModel::from_bench_json(path);
      ADD_FAILURE() << name << ": expected ParseError";
    } catch (const ParseError& e) {
      EXPECT_EQ(e.source(), path) << name;
      EXPECT_EQ(e.line(), 5u) << name << ": " << e.what();
      EXPECT_EQ(e.token().rfind("{\"sites\": ", 0), 0u) << name << ": " << e.token();
    }
  }
}

TEST(CostModel, FileWithoutRecordsIsParseError) {
  EXPECT_THROW((void)CostModel::from_bench_json(kCorpus + "/no_records.json"), ParseError);
}

TEST(CostModel, MissingFileIsIoError) {
  EXPECT_THROW((void)CostModel::from_bench_json(kCorpus + "/does_not_exist.json"), IoError);
}

}  // namespace
}  // namespace rgleak::core
