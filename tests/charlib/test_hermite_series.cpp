// The Mehler–Hermite series behind every covariance consumer, against the
// closed-form bivariate expectation (charlib::pair_product_expectation) on
// the fits of the bench corners TT/25C and FF/110C: per (cell, state), per
// state-mixed cell type, and per RG mixture; plus the Parseval order choice.

#include "charlib/hermite_series.h"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "../test_util.h"
#include "charlib/characterize.h"
#include "charlib/correlation_map.h"
#include "device/subthreshold.h"

namespace rgleak::charlib {
namespace {

constexpr std::size_t kRhoSteps = 200;  // 201 values of rho in [0, 1]

double rho_at(std::size_t i) { return static_cast<double>(i) / static_cast<double>(kRhoSteps); }

// A bench corner: the 62-cell library at `celsius`, L = 40 + delta +/- 2.5 nm
// with an even D2D/WID split.
struct Corner {
  const char* name;
  double delta_l_nm, celsius;
};

struct CornerFits {
  CornerFits(const Corner& c, const process::LengthVariation& len)
      : library(cells::build_virtual90_library(
            device::at_temperature(device::TechnologyParams{}, c.celsius + 273.15))),
        chars(characterize_analytic(
            library, process::ProcessVariation(
                         len, process::VtVariation{},
                         std::make_shared<process::ExponentialCorrelation>(1.0e5)))),
        mu(len.mean_nm),
        sigma(len.sigma_total_nm()) {}

  cells::StdCellLibrary library;  // `chars` points at it: keep in place
  CharacterizedLibrary chars;
  double mu, sigma;
};

const std::vector<std::unique_ptr<CornerFits>>& corner_fits() {
  static const std::vector<std::unique_ptr<CornerFits>> fits = [] {
    std::vector<std::unique_ptr<CornerFits>> v;
    for (const Corner& c :
         {Corner{"TT/25C", 0.0, 25.0}, Corner{"FF/110C", -2.5 / std::sqrt(2.0), 110.0}}) {
      process::LengthVariation len;
      len.mean_nm = 40.0 + c.delta_l_nm;
      len.sigma_d2d_nm = len.sigma_wid_nm = 2.5 / std::sqrt(2.0);
      v.push_back(std::make_unique<CornerFits>(c, len));
    }
    return v;
  }();
  return fits;
}

std::vector<const CornerFits*> corners() {
  std::vector<const CornerFits*> v;
  for (const auto& f : corner_fits()) v.push_back(f.get());
  return v;
}

const StateChar& state(const CornerFits& f, std::size_t cell, std::size_t s) {
  return f.chars.cell(cell).states[s];
}

HermiteSeries state_series(const CornerFits& f, std::size_t cell, std::size_t s) {
  const StateChar& st = state(f, cell, s);
  return hermite_series(*st.model, st.mean_na, f.mu, f.sigma);
}

// Closed-form Cov(X_a, X_b; rho) of two fitted states.
double closed_state_cov(const CornerFits& f, std::size_t ca, std::size_t sa, std::size_t cb,
                        std::size_t sb, double rho) {
  const StateChar& a = state(f, ca, sa);
  const StateChar& b = state(f, cb, sb);
  return pair_product_expectation(*a.model, *b.model, f.mu, f.sigma, rho) - a.mean_na * b.mean_na;
}

TEST(HermiteSeries, StatePairCovarianceMatchesTheClosedForm) {
  for (const CornerFits* fp : corners()) {
    const CornerFits& f = *fp;
    std::vector<std::pair<std::size_t, std::size_t>> fits;  // (cell, state)
    for (std::size_t c = 0; c < f.chars.size(); ++c)
      for (std::size_t s = 0; s < f.chars.cell(c).states.size(); ++s) fits.emplace_back(c, s);
    ASSERT_GT(fits.size(), 500u);
    for (std::size_t i = 0; i < fits.size(); ++i) {
      const auto [ca, sa] = fits[i];
      const HermiteSeries a = state_series(f, ca, sa);
      for (std::size_t j = i; j < fits.size(); j += 5) {
        const auto [cb, sb] = fits[j];
        const HermiteSeries b = state_series(f, cb, sb);
        const double scale = std::abs(closed_state_cov(f, ca, sa, cb, sb, 1.0));
        for (std::size_t r = 0; r <= kRhoSteps; ++r) {
          const double rho = rho_at(r);
          const double closed = closed_state_cov(f, ca, sa, cb, sb, rho);
          ASSERT_LE(std::abs(series_covariance(a, b, rho) - closed), 1e-12 * scale)
              << "fits " << i << ", " << j << " rho " << rho;
        }
      }
    }
  }
}

TEST(HermiteSeries, TypePairCovarianceMatchesTheClosedForm) {
  // Cell types mix their states under signal probability 0.5, as the exact
  // estimator does.
  for (const CornerFits* fp : corners()) {
    const CornerFits& f = *fp;
    std::vector<HermiteSeries> types(f.chars.size());
    std::vector<std::vector<double>> probs(f.chars.size());
    for (std::size_t c = 0; c < f.chars.size(); ++c) {
      probs[c] = f.chars.state_probabilities(c, 0.5);
      for (std::size_t s = 0; s < probs[c].size(); ++s)
        types[c].add_scaled(probs[c][s], state_series(f, c, s));
    }
    const auto closed = [&](std::size_t m, std::size_t n, double rho) {
      double cov = 0.0;
      for (std::size_t sm = 0; sm < probs[m].size(); ++sm)
        for (std::size_t sn = 0; sn < probs[n].size(); ++sn)
          cov += probs[m][sm] * probs[n][sn] * closed_state_cov(f, m, sm, n, sn, rho);
      return cov;
    };
    for (std::size_t m = 0; m < types.size(); ++m)
      for (std::size_t n = m; n < types.size(); n += 4) {
        const double scale = std::abs(closed(m, n, 1.0));
        for (std::size_t r = 0; r <= kRhoSteps; ++r) {
          const double rho = rho_at(r);
          ASSERT_LE(std::abs(series_covariance(types[m], types[n], rho) - closed(m, n, rho)),
                    1e-12 * scale)
              << "types " << m << ", " << n << " rho " << rho;
        }
      }
  }
}

TEST(HermiteSeries, ParsevalSumIsTheVarianceAndTheOrderIsTheSmallestWithinTheTail) {
  for (const CornerFits* fp : corners()) {
    const CornerFits& f = *fp;
    for (std::size_t c = 0; c < f.chars.size(); ++c)
      for (std::size_t s = 0; s < f.chars.cell(c).states.size(); ++s) {
        const math::LogQuadraticModel& model = *state(f, c, s).model;
        const HermiteSeries series = state_series(f, c, s);
        const std::size_t order = series.order();
        ASSERT_GE(order, 2u);
        double kept = 0.0;
        for (std::size_t k = 1; k <= order; ++k) kept += series.g[k] * series.g[k];
        const math::LogQuadraticMoments moments(model, f.mu, f.sigma);
        EXPECT_NEAR(kept, moments.variance(), 1e-12 * moments.variance()) << c << "/" << s;
        EXPECT_EQ(series.g[0], moments.mean());

        // The tail past K and past K - 1, summed term by term from the
        // recursion far beyond K (so not through the closed-form total).
        const double denom = 1.0 - 2.0 * model.c * f.sigma * f.sigma;
        const double p = (model.b + 2.0 * model.c * f.mu) * f.sigma / denom;
        const double q = 2.0 * model.c * f.sigma * f.sigma / denom;
        std::vector<double> u = {1.0, p};
        for (std::size_t k = 1; k < order + 60; ++k)
          u.push_back((p * u[k] + std::sqrt(static_cast<double>(k)) * q * u[k - 1]) /
                      std::sqrt(static_cast<double>(k + 1)));
        double total = 0.0, tail_k = 0.0, tail_k1 = 0.0;
        for (std::size_t k = 1; k < u.size(); ++k) {
          total += u[k] * u[k];
          if (k > order) tail_k += u[k] * u[k];
          if (k >= order) tail_k1 += u[k] * u[k];
        }
        // 1 % slack: the series' own tail test differences two sums equal to
        // ~1e-3 of the threshold.
        EXPECT_LE(tail_k, 1.01 * kHermiteTail * total) << c << "/" << s;
        EXPECT_GT(tail_k1, 0.99 * kHermiteTail * total) << c << "/" << s;
      }
  }
}

// Closed-form double sum F_AB(rho) = sum_{k in A} sum_{l in B} w_k w_l Cov.
double closed_mixture_cov(const std::vector<RgComponent>& a, const std::vector<RgComponent>& b,
                          const CornerFits& f, double rho) {
  double sum = 0.0;
  for (const RgComponent& x : a)
    for (const RgComponent& y : b)
      sum += x.weight * y.weight *
             (pair_product_expectation(*x.model, *y.model, f.mu, f.sigma, rho) -
              x.mean_na * y.mean_na);
  return sum;
}

std::vector<RgComponent> mix(const CornerFits& f, std::size_t first, std::size_t stride) {
  std::vector<double> usage(f.chars.size(), 0.0);
  double total = 0.0;
  for (std::size_t c = first; c < f.chars.size(); c += stride) {
    usage[c] = 1.0 + static_cast<double>(c % 3);
    total += usage[c];
  }
  for (double& u : usage) u /= total;
  return make_rg_components(f.chars, usage, 0.5);
}

TEST(HermiteSeries, RgAndCrossRgCovarianceMatchTheClosedFormDoubleSum) {
  for (const CornerFits* fp : corners()) {
    const CornerFits& f = *fp;
    const std::vector<RgComponent> a = mix(f, 0, 5), b = mix(f, 3, 7);
    const AnalyticRgCovariance rg(a, f.mu, f.sigma);
    const CrossRgCovariance cross(a, b, f.mu, f.sigma);
    const double rg_scale = closed_mixture_cov(a, a, f, 1.0);
    const double cross_scale = std::abs(closed_mixture_cov(a, b, f, 1.0));
    for (std::size_t r = 0; r <= kRhoSteps; ++r) {
      const double rho = rho_at(r);
      EXPECT_NEAR(rg.covariance(rho), closed_mixture_cov(a, a, f, rho), 1e-12 * rg_scale)
          << "rho " << rho;
      EXPECT_NEAR(cross.covariance(rho), closed_mixture_cov(a, b, f, rho), 1e-12 * cross_scale)
          << "rho " << rho;
    }
  }
}

TEST(HermiteSeries, MixingIsLinearAndTheFirstOrderSeriesIsTheSimplifiedModel) {
  HermiteSeries a;
  a.mean_na = 2.0;
  a.g = {2.0, 1.0, 0.5};
  HermiteSeries mixed;
  mixed.add_scaled(0.25, a);
  mixed.add_scaled(0.75, first_order_series(4.0, 3.0));
  EXPECT_DOUBLE_EQ(mixed.mean_na, 3.5);
  ASSERT_EQ(mixed.order(), 2u);
  EXPECT_DOUBLE_EQ(mixed.g[1], 0.25 * 1.0 + 0.75 * 3.0);
  EXPECT_DOUBLE_EQ(mixed.g[2], 0.125);

  const HermiteSeries s = first_order_series(4.0, 3.0), t = first_order_series(1.0, 2.0);
  EXPECT_DOUBLE_EQ(series_covariance(s, t, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(series_covariance(s, t, 0.5), 3.0);
  // A model without spread through L has order 0 and no covariance.
  const HermiteSeries flat = hermite_series({5.0, 0.0, 0.0}, 5.0, 40.0, 2.5);
  EXPECT_EQ(flat.order(), 0u);
  EXPECT_NEAR(series_covariance(flat, flat, 1.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace rgleak::charlib
