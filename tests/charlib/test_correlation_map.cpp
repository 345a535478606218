#include "charlib/correlation_map.h"

#include <gtest/gtest.h>

#include <cmath>

#include "../test_util.h"
#include "math/rng.h"
#include "math/stats.h"
#include "util/require.h"

namespace rgleak::charlib {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

math::LogQuadraticModel model_a() { return {2.0e4, -0.12, 0.0025}; }
math::LogQuadraticModel model_b() { return {5.0e3, -0.08, 0.0015}; }

constexpr double kMu = 40.0, kSigma = 2.5;

// The mixture tests must evaluate pair expectations at the SAME length
// statistics the fixture library was characterized with.
double fixture_sigma() { return rgleak::testing::test_process().length().sigma_total_nm(); }

TEST(PairMoments, ZeroRhoFactorizes) {
  const double e = pair_product_expectation(model_a(), model_b(), kMu, kSigma, 0.0);
  const math::LogQuadraticMoments ma(model_a(), kMu, kSigma);
  const math::LogQuadraticMoments mb(model_b(), kMu, kSigma);
  EXPECT_NEAR(e, ma.mean() * mb.mean(), 1e-9 * e);
  EXPECT_NEAR(pair_leakage_covariance(model_a(), model_b(), kMu, kSigma, 0.0), 0.0,
              1e-9 * e);
  EXPECT_NEAR(pair_leakage_correlation(model_a(), model_b(), kMu, kSigma, 0.0), 0.0, 1e-9);
}

TEST(PairMoments, IdenticalModelsAtRhoOneGiveVariance) {
  const math::LogQuadraticMoments ma(model_a(), kMu, kSigma);
  const double cov = pair_leakage_covariance(model_a(), model_a(), kMu, kSigma, 1.0);
  EXPECT_NEAR(cov, ma.variance(), 1e-8 * ma.variance());
  EXPECT_NEAR(pair_leakage_correlation(model_a(), model_a(), kMu, kSigma, 1.0), 1.0, 1e-8);
}

TEST(PairMoments, CorrelationMonotoneInRho) {
  double prev = -1.0;
  for (double rho = 0.0; rho <= 1.0; rho += 0.05) {
    const double f = pair_leakage_correlation(model_a(), model_b(), kMu, kSigma, rho);
    EXPECT_GT(f, prev);
    prev = f;
  }
}

TEST(PairMoments, MappingIsCloseToIdentity) {
  // Fig. 2 of the paper: f_{m,n} hugs the y = x line.
  for (double rho = 0.0; rho <= 1.0; rho += 0.1) {
    const double f = pair_leakage_correlation(model_a(), model_b(), kMu, kSigma, rho);
    EXPECT_NEAR(f, rho, 0.08) << "rho=" << rho;
  }
}

TEST(PairMoments, MatchesMonteCarlo) {
  const double rho = 0.55;
  math::Rng rng(99);
  math::RunningCovariance cov;
  const auto ma = model_a();
  const auto mb = model_b();
  for (int i = 0; i < 400000; ++i) {
    const double z1 = rng.normal();
    const double z2 = rho * z1 + std::sqrt(1 - rho * rho) * rng.normal();
    cov.add(ma(kMu + kSigma * z1), mb(kMu + kSigma * z2));
  }
  const double closed = pair_leakage_correlation(ma, mb, kMu, kSigma, rho);
  EXPECT_NEAR(closed, cov.correlation(), 0.01);
}

TEST(RgComponents, WeightsAreUsageTimesStateProbability) {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("INV_X1")] = 0.6;
  usage[mini_library().index_of("NAND2_X1")] = 0.4;
  const auto comps = make_rg_components(chars, usage, 0.5);
  // INV contributes 2 states, NAND2 contributes 4.
  ASSERT_EQ(comps.size(), 6u);
  double total = 0.0;
  for (const auto& c : comps) total += c.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(RgComponents, DropsZeroWeightStates) {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("NAND2_X1")] = 1.0;
  // p = 0: only state 00 survives.
  const auto comps = make_rg_components(chars, usage, 0.0);
  ASSERT_EQ(comps.size(), 1u);
  EXPECT_NEAR(comps[0].weight, 1.0, 1e-12);
}

TEST(RgComponents, ContractChecks) {
  const auto& chars = mini_chars_analytic();
  std::vector<double> bad(chars.size(), 0.0);
  EXPECT_THROW(make_rg_components(chars, bad, 0.5), ContractViolation);  // sums to 0
  bad.assign(chars.size() - 1, 0.1);
  EXPECT_THROW(make_rg_components(chars, bad, 0.5), ContractViolation);  // wrong size
}

std::vector<RgComponent> test_components() {
  const auto& chars = mini_chars_analytic();
  std::vector<double> usage(chars.size(), 0.0);
  usage[mini_library().index_of("INV_X1")] = 0.5;
  usage[mini_library().index_of("NOR2_X1")] = 0.5;
  return make_rg_components(chars, usage, 0.5);
}

TEST(AnalyticRgCovariance, MixtureMeanAndVarianceMatchEquations) {
  const auto comps = test_components();
  const AnalyticRgCovariance cov(comps, kMu, fixture_sigma());
  // Eqs (7)-(8) by hand.
  double mean = 0.0, second = 0.0;
  for (const auto& c : comps) {
    mean += c.weight * c.mean_na;
    second += c.weight * (c.sigma_na * c.sigma_na + c.mean_na * c.mean_na);
  }
  EXPECT_NEAR(cov.mean(), mean, 1e-9 * mean);
  EXPECT_NEAR(cov.variance(), second - mean * mean, 1e-6 * cov.variance());
}

TEST(AnalyticRgCovariance, ZeroAtZeroRho) {
  const AnalyticRgCovariance cov(test_components(), kMu, fixture_sigma());
  EXPECT_NEAR(cov.covariance(0.0), 0.0, 1e-6 * cov.variance());
}

TEST(AnalyticRgCovariance, MonotoneAndBelowVariance) {
  const AnalyticRgCovariance cov(test_components(), kMu, fixture_sigma());
  double prev = -1.0;
  for (double rho = 0.0; rho <= 1.0; rho += 0.02) {
    const double f = cov.covariance(rho);
    EXPECT_GE(f, prev);
    prev = f;
  }
  // F(1) < sigma^2_XI: same-location variance includes gate-choice variance.
  EXPECT_LT(cov.covariance(1.0), cov.variance());
}

TEST(AnalyticRgCovariance, RequiresModels) {
  auto comps = test_components();
  comps[0].model.reset();
  EXPECT_THROW(AnalyticRgCovariance(comps, kMu, fixture_sigma()), ContractViolation);
}

TEST(SimplifiedRgCovariance, LinearInRho) {
  const auto comps = test_components();
  const SimplifiedRgCovariance cov(comps);
  double s = 0.0;
  for (const auto& c : comps) s += c.weight * c.sigma_na;
  EXPECT_NEAR(cov.covariance(1.0), s * s, 1e-9 * s * s);
  EXPECT_NEAR(cov.covariance(0.25), 0.25 * s * s, 1e-9 * s * s);
  EXPECT_DOUBLE_EQ(cov.covariance(0.0), 0.0);
}

TEST(SimplifiedVsAnalytic, CloseForOurLibrary) {
  // Section 3.1.2: the rho_mn = rho_L simplification changes the covariance
  // by only a few percent.
  const auto comps = test_components();
  const AnalyticRgCovariance a(comps, kMu, fixture_sigma());
  const SimplifiedRgCovariance s(comps);
  for (double rho : {0.2, 0.5, 0.8, 1.0}) {
    EXPECT_NEAR(a.covariance(rho), s.covariance(rho), 0.10 * a.covariance(1.0))
        << "rho=" << rho;
  }
}

}  // namespace
}  // namespace rgleak::charlib
