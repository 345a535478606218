#include "math/quadrature.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.h"

namespace rgleak::math {
namespace {

TEST(AdaptiveSimpson, Polynomial) {
  // int_0^1 (3x^2 + 2x + 1) dx = 3.
  const double v = integrate_adaptive([](double x) { return 3 * x * x + 2 * x + 1; }, 0.0, 1.0);
  EXPECT_NEAR(v, 3.0, 1e-10);
}

TEST(AdaptiveSimpson, Exponential) {
  const double v = integrate_adaptive([](double x) { return std::exp(-x); }, 0.0, 10.0);
  EXPECT_NEAR(v, 1.0 - std::exp(-10.0), 1e-9);
}

TEST(AdaptiveSimpson, OscillatoryNeedsRefinement) {
  // int_0^2pi sin^2(10 x) dx = pi.
  const double v =
      integrate_adaptive([](double x) { return std::sin(10 * x) * std::sin(10 * x); }, 0.0,
                         2.0 * M_PI);
  EXPECT_NEAR(v, M_PI, 1e-8);
}

TEST(AdaptiveSimpson, ZeroWidthInterval) {
  EXPECT_DOUBLE_EQ(integrate_adaptive([](double) { return 1.0; }, 2.0, 2.0), 0.0);
}

TEST(AdaptiveSimpson, RejectsInvertedInterval) {
  EXPECT_THROW(integrate_adaptive([](double) { return 1.0; }, 1.0, 0.0), ContractViolation);
}

TEST(AdaptiveSimpson, SharpPeak) {
  // Narrow Gaussian fully inside the interval: integral ~ sqrt(2 pi) sigma.
  const double sigma = 1e-2;
  const double v = integrate_adaptive(
      [=](double x) { return std::exp(-0.5 * (x - 0.37) * (x - 0.37) / (sigma * sigma)); }, 0.0,
      1.0, {1e-12, 1e-10, 60});
  EXPECT_NEAR(v, std::sqrt(2.0 * M_PI) * sigma, 1e-8);
}

TEST(GaussLegendre, NodesSymmetricWeightsSumToTwo) {
  for (std::size_t n : {1u, 2u, 5u, 16u, 33u}) {
    const GaussLegendreRule rule = gauss_legendre(n);
    ASSERT_EQ(rule.nodes.size(), n);
    double wsum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      wsum += rule.weights[i];
      EXPECT_NEAR(rule.nodes[i], -rule.nodes[n - 1 - i], 1e-13);
      EXPECT_NEAR(rule.weights[i], rule.weights[n - 1 - i], 1e-13);
      EXPECT_GT(rule.weights[i], 0.0);
    }
    EXPECT_NEAR(wsum, 2.0, 1e-12);
  }
}

TEST(GaussLegendre, ExactForPolynomialsUpToDegree2nMinus1) {
  // 5-point rule integrates x^9 exactly on [-1, 1] (odd -> 0) and x^8.
  const double v8 = integrate_gauss([](double x) { return std::pow(x, 8); }, -1.0, 1.0, 5);
  EXPECT_NEAR(v8, 2.0 / 9.0, 1e-12);
  const double v9 = integrate_gauss([](double x) { return std::pow(x, 9); }, -1.0, 1.0, 5);
  EXPECT_NEAR(v9, 0.0, 1e-13);
}

TEST(GaussLegendre, ArbitraryInterval) {
  const double v = integrate_gauss([](double x) { return 1.0 / x; }, 1.0, std::exp(1.0), 20);
  EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Integrate2D, SeparableProduct) {
  // int_0^1 int_0^2 x y dy dx = 1/2 * 2 = 1.
  const double v = integrate_2d([](double x, double y) { return x * y; }, 0, 1, 0, 2);
  EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Integrate2D, GaussianBump) {
  // Radially symmetric Gaussian over a large box ~ 2 pi sigma^2.
  const double s = 0.1;
  const double v = integrate_2d(
      [=](double x, double y) { return std::exp(-0.5 * (x * x + y * y) / (s * s)); }, -2, 2, -2,
      2, 24, 8, 8);
  EXPECT_NEAR(v, 2.0 * M_PI * s * s, 1e-8);
}

TEST(Integrate2D, RejectsBadRectangleOrPanels) {
  EXPECT_THROW(integrate_2d([](double, double) { return 1.0; }, 1, 0, 0, 1),
               ContractViolation);
  EXPECT_THROW(integrate_2d([](double, double) { return 1.0; }, 0, 1, 0, 1, 8, 0, 1),
               ContractViolation);
}

}  // namespace
}  // namespace rgleak::math
