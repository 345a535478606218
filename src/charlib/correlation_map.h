#pragma once
// Leakage-correlation machinery (sections 2.1.3 and 2.2.3 of the paper).
//
// Given two cells with fitted models X_m = a_m exp(b_m L + c_m L^2) and
// jointly normal lengths with correlation rho_L, the product moment
// E[X_m X_n] has the closed form of the bivariate Gaussian
// exponential-quadratic expectation, which yields the exact mapping
//   rho_{m,n} = f_{m,n}(rho_L)
// from channel-length correlation to leakage correlation (Fig. 2: f is close
// to the identity). The estimators evaluate it through its Mehler–Hermite
// series (charlib/hermite_series.h); the closed form stays as the reference.
//
// The Random-Gate covariance of eq. (10) is the usage-weighted mixture of the
// pairwise covariances over all (cell, state) components:
//   F(rho_L) = sum_k sum_l w_k w_l Cov(X_k, X_l; rho_L),
// which the series turns into one coefficient vector per mixture:
// F(rho) = sum_j rho^j G_j^2 (plus the k = 0 mean term), G_j = sum_k w_k g_j(k).
// Two constructions of the same model are provided:
//  * AnalyticRgCovariance — exact, from the fitted models;
//  * SimplifiedRgCovariance — the rho_{m,n} ~= rho_L assumption of section
//    3.1.2, the order-1 series F(rho) = rho * (sum_k w_k sigma_k)^2, usable
//    with MC-characterized libraries that carry no (a,b,c).

#include <vector>

#include "charlib/characterize.h"
#include "charlib/hermite_series.h"
#include "math/mgf.h"

namespace rgleak::charlib {

/// E[X1 X2] for two log-quadratic models with lengths (L1, L2) jointly normal:
/// common mean mu_l, common sigma sigma_l, correlation rho_l.
double pair_product_expectation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l);

/// Cov(X1, X2) for the same setting.
double pair_leakage_covariance(const math::LogQuadraticModel& m1,
                               const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                               double rho_l);

/// The f_{m,n} mapping: leakage correlation as a function of length
/// correlation.
double pair_leakage_correlation(const math::LogQuadraticModel& m1,
                                const math::LogQuadraticModel& m2, double mu_l, double sigma_l,
                                double rho_l);

/// One component of the Random-Gate mixture: a (cell, state) pair with its
/// usage-times-state probability weight.
struct RgComponent {
  double weight = 0.0;
  double mean_na = 0.0;
  double sigma_na = 0.0;
  std::optional<math::LogQuadraticModel> model;
};

/// Flattens a characterized library + usage distribution + signal probability
/// into the RG component mixture. Weights sum to 1.
std::vector<RgComponent> make_rg_components(const CharacterizedLibrary& chars,
                                            const std::vector<double>& usage_alphas,
                                            double signal_probability);

/// The RG leakage covariance as a function of length correlation (eq. (11)):
/// covariance(rho) = F(rho) for distinct locations; variance() is
/// sigma^2_{X_I} for coincident locations. Built by AnalyticRgCovariance or
/// SimplifiedRgCovariance.
class RgCovarianceModel {
 public:
  /// F(rho_L) for distinct locations; rho_L in [0, 1].
  double covariance(double rho_l) const;
  /// sigma^2 of the RG leakage (same-location covariance).
  double variance() const { return variance_; }
  /// mu of the RG leakage.
  double mean() const { return mean_; }

 protected:
  RgCovarianceModel(const std::vector<RgComponent>& components, HermiteSeries mixture);

 private:
  HermiteSeries mixture_;
  double mean_ = 0.0, variance_ = 0.0;
};

/// Exact mixture covariance from the fitted models.
class AnalyticRgCovariance final : public RgCovarianceModel {
 public:
  /// Requires every component to carry a fitted model.
  AnalyticRgCovariance(const std::vector<RgComponent>& components, double mu_l, double sigma_l);
};

/// Simplified covariance under rho_{m,n} = rho_L (section 3.1.2): the same
/// model at order 1.
class SimplifiedRgCovariance final : public RgCovarianceModel {
 public:
  explicit SimplifiedRgCovariance(const std::vector<RgComponent>& components);
};

/// Covariance between the leakages of two *different* RG mixtures (e.g. two
/// floorplan blocks with different usage histograms) as a function of length
/// correlation: F_AB(rho) = sum_{k in A} sum_{l in B} w_k w_l Cov(X_k, X_l;
/// rho). Used by the multi-block estimator.
class CrossRgCovariance {
 public:
  /// Analytic form: both component lists must carry fitted models.
  CrossRgCovariance(const std::vector<RgComponent>& a, const std::vector<RgComponent>& b,
                    double mu_l, double sigma_l);
  /// Simplified form (rho_mn = rho_L): F_AB(rho) = rho * (sum w sigma)_A *
  /// (sum w sigma)_B. Select with `simplified = true`; models not required.
  CrossRgCovariance(const std::vector<RgComponent>& a, const std::vector<RgComponent>& b,
                    bool simplified);

  double covariance(double rho_l) const;

 private:
  HermiteSeries a_, b_;
};

}  // namespace rgleak::charlib
