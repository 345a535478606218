#include "charlib/correlation_map.h"

#include <cmath>

#include "math/gaussian_moments.h"
#include "util/require.h"

namespace rgleak::charlib {

double pair_product_expectation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l) {
  RGLEAK_REQUIRE(m1.a > 0.0 && m2.a > 0.0, "models need positive scale");
  return m1.a * m2.a *
         math::expectation_exp_quadratic_2d(m1.b, m1.c, m2.b, m2.c, mu_l,
                                            sigma_l * sigma_l, rho_l);
}

double pair_leakage_covariance(const math::LogQuadraticModel& m1,
                               const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                               double rho_l) {
  const math::LogQuadraticMoments mo1(m1, mu_l, sigma_l);
  const math::LogQuadraticMoments mo2(m2, mu_l, sigma_l);
  return pair_product_expectation(m1, m2, mu_l, sigma_l, rho_l) - mo1.mean() * mo2.mean();
}

double pair_leakage_correlation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l) {
  const math::LogQuadraticMoments mo1(m1, mu_l, sigma_l);
  const math::LogQuadraticMoments mo2(m2, mu_l, sigma_l);
  RGLEAK_REQUIRE(mo1.stddev() > 0.0 && mo2.stddev() > 0.0,
                 "correlation needs non-degenerate leakage");
  return pair_leakage_covariance(m1, m2, mu_l, sigma_l, rho_l) / (mo1.stddev() * mo2.stddev());
}

std::vector<RgComponent> make_rg_components(const CharacterizedLibrary& chars,
                                            const std::vector<double>& usage_alphas,
                                            double signal_probability) {
  RGLEAK_REQUIRE(usage_alphas.size() == chars.size(),
                 "usage distribution must have one entry per library cell");
  double total = 0.0;
  for (double a : usage_alphas) {
    RGLEAK_REQUIRE(a >= 0.0, "usage frequencies must be non-negative");
    total += a;
  }
  RGLEAK_REQUIRE(std::abs(total - 1.0) < 1e-6, "usage frequencies must sum to 1");

  std::vector<RgComponent> components;
  for (std::size_t ci = 0; ci < chars.size(); ++ci) {
    if (usage_alphas[ci] == 0.0) continue;
    const std::vector<double> sp = chars.state_probabilities(ci, signal_probability);
    const CellChar& cc = chars.cell(ci);
    for (std::size_t s = 0; s < cc.states.size(); ++s) {
      const double w = usage_alphas[ci] * sp[s];
      if (w == 0.0) continue;
      RgComponent comp;
      comp.weight = w;
      comp.mean_na = cc.states[s].mean_na;
      comp.sigma_na = cc.states[s].sigma_na;
      comp.model = cc.states[s].model;
      components.push_back(comp);
    }
  }
  RGLEAK_REQUIRE(!components.empty(), "RG mixture has no components");
  return components;
}

namespace {

// The series of an RG mixture: sum_k w_k hermite_series(component k).
HermiteSeries mixture_series(const std::vector<RgComponent>& components, double mu_l,
                             double sigma_l) {
  RGLEAK_REQUIRE(!components.empty(), "RG mixture has no components");
  HermiteSeries mix;
  for (const auto& c : components) {
    RGLEAK_REQUIRE(c.model.has_value(),
                   "the analytic covariance needs fitted models for every component");
    mix.add_scaled(c.weight, hermite_series(*c.model, c.mean_na, mu_l, sigma_l));
  }
  return mix;
}

// The order-1 series of an RG mixture under rho_{m,n} = rho_L:
// g_0 = sum w mean, g_1 = sum w sigma.
HermiteSeries first_order_mixture_series(const std::vector<RgComponent>& components) {
  RGLEAK_REQUIRE(!components.empty(), "RG mixture has no components");
  HermiteSeries mix;
  for (const auto& c : components)
    mix.add_scaled(c.weight, first_order_series(c.mean_na, c.sigma_na));
  return mix;
}

}  // namespace

RgCovarianceModel::RgCovarianceModel(const std::vector<RgComponent>& components,
                                     HermiteSeries mixture)
    : mixture_(std::move(mixture)) {
  // Mixture mean and variance of the RG (eqs (7)-(8)).
  double m = 0.0, second = 0.0;
  for (const auto& c : components) {
    m += c.weight * c.mean_na;
    second += c.weight * (c.sigma_na * c.sigma_na + c.mean_na * c.mean_na);
  }
  mean_ = m;
  variance_ = second - m * m;
}

double RgCovarianceModel::covariance(double rho_l) const {
  RGLEAK_REQUIRE(rho_l >= 0.0 && rho_l <= 1.0, "rho_L must be in [0, 1]");
  return series_covariance(mixture_, mixture_, rho_l);
}

AnalyticRgCovariance::AnalyticRgCovariance(const std::vector<RgComponent>& components,
                                           double mu_l, double sigma_l)
    : RgCovarianceModel(components, mixture_series(components, mu_l, sigma_l)) {}

SimplifiedRgCovariance::SimplifiedRgCovariance(const std::vector<RgComponent>& components)
    : RgCovarianceModel(components, first_order_mixture_series(components)) {}

CrossRgCovariance::CrossRgCovariance(const std::vector<RgComponent>& a,
                                     const std::vector<RgComponent>& b, double mu_l,
                                     double sigma_l)
    : a_(mixture_series(a, mu_l, sigma_l)), b_(mixture_series(b, mu_l, sigma_l)) {}

CrossRgCovariance::CrossRgCovariance(const std::vector<RgComponent>& a,
                                     const std::vector<RgComponent>& b, bool simplified)
    : a_(first_order_mixture_series(a)), b_(first_order_mixture_series(b)) {
  RGLEAK_REQUIRE(simplified, "use the analytic constructor for the exact mapping");
}

double CrossRgCovariance::covariance(double rho_l) const {
  RGLEAK_REQUIRE(rho_l >= 0.0 && rho_l <= 1.0, "rho_L must be in [0, 1]");
  return series_covariance(a_, b_, rho_l);
}

}  // namespace rgleak::charlib
