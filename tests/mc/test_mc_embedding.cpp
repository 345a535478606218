// The fidelity of the MC reference: the covariance the circulant embedding
// realizes, carried through the exact estimator to the chip's leakage mean
// and sigma, is gated across the regime the benches and tests run in, and
// the engine's statistics are checked against the exact answer under that
// covariance.
//
// The regime test prints one row per case (the range-padded embedding,
// GridFieldSampler::max_padded_dim, and the chosen one side by side);
// EXPERIMENTS.md records that table:
//   ./build/tests/mc_tests --gtest_filter='McEmbedding.Regime*'

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "../test_util.h"
#include "core/estimators.h"
#include "mc/full_chip_mc.h"
#include "netlist/random_circuit.h"
#include "process/field_sampler.h"

namespace rgleak::mc {
namespace {

using rgleak::testing::mini_library;

struct Regime {
  const char* kernel;  ///< "exp" or "gauss"
  double lc_nm;
  double pitch_nm;
  std::size_t side;
};

// The bench process (total length sigma 2.5 nm split evenly between D2D and
// WID) under the case's WID kernel, characterized analytically.
charlib::CharacterizedLibrary regime_chars(const Regime& r) {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = 2.5 / std::sqrt(2.0);
  std::shared_ptr<const process::SpatialCorrelation> kernel;
  if (std::string(r.kernel) == "exp")
    kernel = std::make_shared<process::ExponentialCorrelation>(r.lc_nm);
  else
    kernel = std::make_shared<process::GaussianCorrelation>(r.lc_nm);
  return charlib::characterize_analytic(mini_library(),
                                        process::ProcessVariation(len, {}, kernel));
}

// The mc-validate cell mix: INV/NAND2/NOR2 at 0.4/0.4/0.2, one gate per site.
netlist::Netlist regime_netlist(std::size_t side) {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.4;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.4;
  u.alphas[mini_library().index_of("NOR2_X1")] = 0.2;
  math::Rng gen(101);
  return generate_random_circuit(mini_library(), u, side * side, gen);
}

placement::Floorplan square(std::size_t side, double pitch_nm) {
  placement::Floorplan fp;
  fp.rows = fp.cols = side;
  fp.site_w_nm = fp.site_h_nm = pitch_nm;
  return fp;
}

bool within(const McEmbedding& e, double tol) {
  return std::abs(e.mean_bias) <= tol && std::abs(e.sigma_bias) <= tol;
}

TEST(McEmbedding, RegimeChoiceIsNoLargerThanTheRangePaddedOneAndAtLeastAsFaithful) {
  // Exponential 10 um / 0.1 mm / 1 mm and Gaussian 0.1 mm kernels, 8-128
  // sites a side, 1.5 and 5 um pitch. Gaussian 0.1 mm on 16x16 sites at
  // 1.5 um is +3.1e-2 sigma at the range-padded embedding (128x128).
  const Regime cases[] = {
      {"exp", 1.0e4, 1500.0, 48},  {"exp", 1.0e4, 5000.0, 64},  {"exp", 1.0e5, 1500.0, 8},
      {"exp", 1.0e5, 1500.0, 24},  {"exp", 1.0e5, 1500.0, 48},  {"exp", 1.0e5, 1500.0, 128},
      {"exp", 1.0e5, 5000.0, 32},  {"exp", 1.0e6, 1500.0, 48},  {"exp", 1.0e6, 1500.0, 128},
      {"exp", 1.0e6, 5000.0, 16},  {"gauss", 1.0e5, 1500.0, 16}, {"gauss", 1.0e5, 1500.0, 48},
      {"gauss", 1.0e5, 5000.0, 8}, {"gauss", 1.0e5, 5000.0, 32},
  };
  std::printf("%-5s %8s %6s %5s | %-9s %9s %9s | %-9s %9s %9s\n", "kern", "lc_um", "pitch",
              "sites", "padded", "mean", "sigma", "chosen", "mean", "sigma");
  for (const Regime& r : cases) {
    SCOPED_TRACE(std::string(r.kernel) + " lc " + std::to_string(r.lc_nm) + " pitch " +
                 std::to_string(r.pitch_nm) + " side " + std::to_string(r.side));
    const charlib::CharacterizedLibrary chars = regime_chars(r);
    const netlist::Netlist nl = regime_netlist(r.side);
    const placement::Placement pl(&nl, square(r.side, r.pitch_nm));
    const double range = chars.process().wid_correlation().range_nm();
    const std::size_t padded_dim =
        process::GridFieldSampler::max_padded_dim(r.side, r.pitch_nm, 1.0, range);
    const McEmbedding padded =
        FullChipMonteCarlo::embedding_at(pl, chars, 0.5, 0, padded_dim, padded_dim);
    const McEmbedding chosen = FullChipMonteCarlo::choose_embedding(pl, chars, 0.5, 0);
    std::printf("%-5s %8.0f %6.1f %5zu | %4zux%-4zu %+9.2e %+9.2e | %4zux%-4zu %+9.2e %+9.2e\n",
                r.kernel, r.lc_nm * 1e-3, r.pitch_nm * 1e-3, r.side, padded.padded_rows,
                padded.padded_cols, padded.mean_bias, padded.sigma_bias, chosen.padded_rows,
                chosen.padded_cols, chosen.mean_bias, chosen.sigma_bias);

    EXPECT_LE(chosen.padded_rows, padded_dim);
    EXPECT_LE(chosen.padded_cols, padded_dim);
    // Each bias is within the tolerance or no worse than the padded one's.
    EXPECT_LE(std::abs(chosen.mean_bias),
              std::max(kEmbeddingTolerance, std::abs(padded.mean_bias)));
    EXPECT_LE(std::abs(chosen.sigma_bias),
              std::max(kEmbeddingTolerance, std::abs(padded.sigma_bias)));
    if (std::string(r.kernel) == "gauss" && r.side == 16 && r.pitch_nm == 1500.0) {
      EXPECT_FALSE(within(padded, kEmbeddingTolerance)) << padded.sigma_bias;
      EXPECT_TRUE(within(chosen, kEmbeddingTolerance)) << chosen.sigma_bias;
    }
  }
}

TEST(McEmbedding, McValidateDesignDrawsOnTheMinimalEmbedding) {
  // The mc-validate grid (48x48 sites at 1.5 um, exponential 0.1 mm) keeps
  // its 128x128 default: both biases are within the tolerance.
  const Regime r{"exp", 1.0e5, 1500.0, 48};
  const charlib::CharacterizedLibrary chars = regime_chars(r);
  const netlist::Netlist nl = regime_netlist(r.side);
  const placement::Placement pl(&nl, square(r.side, r.pitch_nm));
  const McEmbedding e = FullChipMonteCarlo::choose_embedding(pl, chars, 0.5, 1);
  EXPECT_EQ(e.padded_rows, 128u);
  EXPECT_EQ(e.padded_cols, 128u);
  EXPECT_GT(e.sigma_bias, 0.0) << "clamping inflates the WID variance";
  EXPECT_TRUE(within(e, kEmbeddingTolerance)) << e.mean_bias << " " << e.sigma_bias;
  // The engine draws on the embedding it chose, and reports it.
  FullChipMcOptions opts;
  opts.trials = 2;
  const McEmbedding drawn = FullChipMonteCarlo(pl, chars, opts).run().embedding;
  EXPECT_EQ(drawn.padded_rows, 128u);
  EXPECT_EQ(drawn.padded_cols, 128u);
  EXPECT_EQ(drawn.mean_bias, e.mean_bias);
  EXPECT_EQ(drawn.sigma_bias, e.sigma_bias);
}

TEST(McEmbedding, RunMatchesTheExactAnswerUnderItsRealizedCovariance) {
  // The statistics the engine samples are the exact estimate scaled by the
  // embedding's biases. Long-range Gaussian kernel on 8x8 sites at 5 um:
  // no rung is within the tolerance, so the least-biased one is drawn.
  const Regime r{"gauss", 1.0e5, 5000.0, 8};
  const charlib::CharacterizedLibrary chars = regime_chars(r);
  const netlist::Netlist nl = regime_netlist(r.side);
  const placement::Placement pl(&nl, square(r.side, r.pitch_nm));
  const core::LeakageEstimate exact =
      core::ExactEstimator(chars, 0.5, core::CorrelationMode::kAnalytic).estimate(pl);

  constexpr std::size_t kTrials = 6000;
  FullChipMcOptions opts;
  opts.trials = kTrials;
  opts.threads = 2;
  opts.seed = 9;
  opts.resample_states_per_trial = true;  // the exact estimate mixes states
  const FullChipMcResult got = FullChipMonteCarlo(pl, chars, opts).run();
  const McEmbedding& e = got.embedding;
  EXPECT_FALSE(within(e, kEmbeddingTolerance));
  const double mean = exact.mean_na * (1.0 + e.mean_bias);
  const double sigma = exact.sigma_na * (1.0 + e.sigma_bias);
  // Standard errors: sigma / sqrt(T) for the mean; the total is close to
  // Gaussian on a strongly correlated die, so about sigma / sqrt(2 T) for
  // sigma, widened for the log-normal tail.
  EXPECT_NEAR(got.mean_na, mean, 5.0 * sigma / std::sqrt(double{kTrials}));
  EXPECT_NEAR(got.sigma_na, sigma, 5.0 * 1.5 * sigma / std::sqrt(2.0 * kTrials));
}

}  // namespace
}  // namespace rgleak::mc
