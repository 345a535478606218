#pragma once
// Mehler–Hermite series of the leakage covariance f_{m,n}(rho_L) (section
// 2.1.3 of the paper); derivation in docs/THEORY.md §3b.
//
// With L = mu + sigma Z, a leakage expands as X = sum_k g_k He_k(Z)/sqrt(k!),
// and Mehler's formula gives, for two leakages at length correlation rho,
//   Cov(X, X'; rho) = (g_0 g'_0 - mean mean') + sum_{k>=1} rho^k g_k g'_k,
// with g_0 = E[X] under the fitted model. For X = a exp(bL + cL^2),
// g_k = E[X] u_k with u_0 = 1, u_1 = p, u_{k+1} = (p u_k + sqrt(k) q u_{k-1})
// / sqrt(k+1), p = (b + 2c mu) sigma / (1 - 2c sigma^2) and
// q = 2c sigma^2 / (1 - 2c sigma^2); Parseval gives the spread in closed form,
// sum_{k>=1} u_k^2 = (1 - q^2)^{-1/2} exp(p^2 / (1 - q)) - 1, which sets the
// truncation order. The series is linear in X, so state, usage and block
// mixtures are linear combinations of coefficient vectors.

#include <cstddef>
#include <vector>

#include "math/mgf.h"

namespace rgleak::charlib {

/// Relative Parseval tail at which a fit's series is truncated.
inline constexpr double kHermiteTail = 1e-13;

/// Coefficient vector of one leakage variable: a fitted (cell, state), a
/// state-mixed cell or gate, or a usage mixture.
struct HermiteSeries {
  /// The characterized mean that the covariance subtracts.
  double mean_na = 0.0;
  /// g_0 = E_model[X], then g_1..g_K (nA).
  std::vector<double> g;

  /// K, the highest order carried.
  std::size_t order() const { return g.empty() ? 0 : g.size() - 1; }

  /// this += w * other; the shorter vector is zero-extended.
  void add_scaled(double w, const HermiteSeries& other);
};

/// The series of one fitted model X = a exp(bL + cL^2), L ~ N(mu_l, sigma_l^2),
/// truncated at the kHermiteTail order; `mean_na` is the characterized mean.
/// Throws NumericalError when the model's variance diverges or the series
/// needs more than 200 orders.
HermiteSeries hermite_series(const math::LogQuadraticModel& model, double mean_na, double mu_l,
                             double sigma_l);

/// The order-1 series of the rho_{m,n} = rho_L simplification (section
/// 3.1.2): g_0 = mean, g_1 = sigma, so Cov = rho sigma sigma'.
HermiteSeries first_order_series(double mean_na, double sigma_na);

/// Cov(X, X'; rho) = sum_k c_k rho^k with c_k = g_k g'_k and
/// c_0 = g_0 g'_0 - mean mean', by Horner over the shorter series.
inline double series_covariance(const HermiteSeries& a, const HermiteSeries& b, double rho) {
  const std::size_t len = a.g.size() < b.g.size() ? a.g.size() : b.g.size();
  if (len == 0) return 0.0;
  double f = 0.0;
  for (std::size_t k = len; k-- > 1;) f = f * rho + a.g[k] * b.g[k];
  return f * rho + (a.g[0] * b.g[0] - a.mean_na * b.mean_na);
}

}  // namespace rgleak::charlib
