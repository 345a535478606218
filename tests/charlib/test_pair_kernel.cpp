// The closed-form 2x2 kernel behind every f_{m,n} evaluation,
// math::expectation_exp_quadratic_2d, against the general n-D route
// (math::expectation_exp_quadratic) on the (b, c) pairs the bench library
// fits at the bench corner.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "../test_util.h"
#include "charlib/characterize.h"
#include "math/gaussian_moments.h"
#include "util/require.h"

namespace rgleak::charlib {
namespace {

// The bench corner: L = 40 +/- 2.5 nm, even D2D/WID split (the fits depend
// on the length statistics, not on the spatial kernel).
process::ProcessVariation bench_corner() {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = std::sqrt(0.5 * 2.5 * 2.5);
  return process::ProcessVariation(len, process::VtVariation{},
                                   std::make_shared<process::ExponentialCorrelation>(1.0e5));
}

struct Fits {
  std::vector<math::LogQuadraticModel> models;  // one per (cell, state)
  double mu = 0.0, var = 0.0;
};

const Fits& bench_fits() {
  static const Fits fits = [] {
    const process::ProcessVariation corner = bench_corner();
    const CharacterizedLibrary chars =
        characterize_analytic(rgleak::testing::full_library(), corner);
    Fits f;
    for (std::size_t c = 0; c < chars.size(); ++c)
      for (const StateChar& s : chars.cell(c).states) f.models.push_back(*s.model);
    f.mu = corner.length().mean_nm;
    f.var = corner.length().sigma_total_nm() * corner.length().sigma_total_nm();
    return f;
  }();
  return fits;
}

// The general route in the principal axes of Sigma: z = mu 1 + R u with
// R = [[1, 1], [1, -1]] / sqrt(2) and u ~ N(0, var diag(1 + rho, 1 - rho)).
// Both Cholesky factors stay exact as rho -> +-1, where inverting the
// correlated-frame Sigma loses A to rounding. At rho = +-1 the pair is one
// Gaussian (z2 - mu = rho (z1 - mu)), which the general route takes in 1-D.
double general_reference(double b1, double c1, double b2, double c2, double mu, double var,
                         double rho) {
  const double v1 = b1 + 2.0 * c1 * mu, v2 = b2 + 2.0 * c2 * mu;
  const double constant = std::exp((b1 + b2) * mu + (c1 + c2) * mu * mu);
  if (rho == 1.0 || rho == -1.0) {
    math::Matrix a(1, 1), sigma(1, 1);
    a(0, 0) = c1 + c2;
    sigma(0, 0) = var;
    return constant * math::expectation_exp_quadratic({v1 + rho * v2}, a, {0.0}, sigma);
  }
  const double r = 1.0 / std::sqrt(2.0);
  math::Matrix a(2, 2), sigma(2, 2);
  a(0, 0) = a(1, 1) = 0.5 * (c1 + c2);
  a(0, 1) = a(1, 0) = 0.5 * (c1 - c2);
  sigma(0, 0) = var * (1.0 + rho);
  sigma(1, 1) = var * (1.0 - rho);
  return constant *
         math::expectation_exp_quadratic({r * (v1 + v2), r * (v1 - v2)}, a, {0.0, 0.0}, sigma);
}

// The route the kernel took before its closed form: the general formula with
// the correlated-frame Sigma, well conditioned away from rho = +-1.
double correlated_frame(double b1, double c1, double b2, double c2, double mu, double var,
                        double rho) {
  math::Matrix a(2, 2), sigma(2, 2);
  a(0, 0) = c1;
  a(1, 1) = c2;
  sigma(0, 0) = sigma(1, 1) = var;
  sigma(0, 1) = sigma(1, 0) = rho * var;
  return math::expectation_exp_quadratic({b1, b2}, a, {mu, mu}, sigma);
}

TEST(PairKernel, MatchesGeneralRouteOnBenchFitsThroughDegenerateRho) {
  const Fits& f = bench_fits();
  ASSERT_GT(f.models.size(), 100u);
  for (double rho : {-1.0, -0.999999, -0.5, 0.0, 0.3, 0.999999, 1.0 - 1e-12, 1.0}) {
    for (std::size_t i = 0; i < f.models.size(); ++i)
      for (std::size_t j = i; j < f.models.size(); j += 3) {
        const math::LogQuadraticModel& m = f.models[i];
        const math::LogQuadraticModel& n = f.models[j];
        const double closed =
            math::expectation_exp_quadratic_2d(m.b, m.c, n.b, n.c, f.mu, f.var, rho);
        const double ref = general_reference(m.b, m.c, n.b, n.c, f.mu, f.var, rho);
        ASSERT_LE(std::abs(closed - ref), 1e-12 * ref)
            << "rho=" << rho << " models " << i << ", " << j;
      }
  }
}

TEST(PairKernel, MatchesCorrelatedFrameRouteOnTheRhoGrids) {
  // A uniform grid of rho = k/64 below rho = 1.
  const Fits& f = bench_fits();
  for (std::size_t k = 0; k < 64; ++k) {
    const double rho = static_cast<double>(k) / 64.0;
    for (std::size_t i = 0; i < f.models.size(); i += 2)
      for (std::size_t j = i; j < f.models.size(); j += 5) {
        const math::LogQuadraticModel& m = f.models[i];
        const math::LogQuadraticModel& n = f.models[j];
        const double closed =
            math::expectation_exp_quadratic_2d(m.b, m.c, n.b, n.c, f.mu, f.var, rho);
        const double old = correlated_frame(m.b, m.c, n.b, n.c, f.mu, f.var, rho);
        ASSERT_LE(std::abs(closed - old), 1e-12 * old) << "rho=" << rho;
      }
  }
}

TEST(PairKernel, NonPositiveDefiniteThrowsLikeTheGeneralRoute) {
  // Both diagonal terms negative (trace <= 0), and a case where each axis
  // alone converges but the correlated pair does not (det <= 0, trace > 0).
  struct Case {
    double c1, c2, rho;
  };
  for (const Case& k : {Case{1.0, 1.0, 0.0}, Case{0.3, 0.3, 0.9}, Case{0.3, 0.3, -1.0}}) {
    EXPECT_THROW((void)math::expectation_exp_quadratic_2d(0.1, k.c1, 0.2, k.c2, 0.0, 1.0, k.rho),
                 NumericalError)
        << k.c1 << " " << k.c2 << " " << k.rho;
    if (std::abs(k.rho) < 1.0) {
      EXPECT_THROW((void)correlated_frame(0.1, k.c1, 0.2, k.c2, 0.0, 1.0, k.rho), NumericalError);
    }
  }
  // Overflow still goes through guarded_exp.
  EXPECT_THROW((void)math::expectation_exp_quadratic_2d(400.0, 0.0, 400.0, 0.0, 1.0, 1e-6, 0.5),
               NumericalError);
}

TEST(PairKernel, ZeroVarianceIsThePointEvaluation) {
  // var = 0 skips the Gaussian algebra, even where var > 0 would diverge.
  const double b1 = 0.1, c1 = 5.0, b2 = -0.2, c2 = 7.0, mu = 0.3;
  EXPECT_EQ(math::expectation_exp_quadratic_2d(b1, c1, b2, c2, mu, 0.0, 1.0),
            std::exp((b1 + b2) * mu + (c1 + c2) * mu * mu));
}

}  // namespace
}  // namespace rgleak::charlib
