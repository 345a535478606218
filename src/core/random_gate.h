#pragma once
// The Random Gate (RG) abstraction (section 2.2 of the paper).
//
// A RG is a probabilistic gate whose instances are library cells drawn with
// the design's frequency-of-use distribution (eq. (6)). Its leakage X_I is
// defined on the product of the gate-choice space and the process space;
// its statistics are the mixture moments of eqs (7)-(8), and the covariance
// between two RGs at distinct die locations is the usage-weighted mixture of
// pairwise gate covariances (eqs (9)-(11)).

#include <memory>

#include "charlib/correlation_map.h"
#include "netlist/netlist.h"
#include "process/variation.h"

namespace rgleak::core {

/// Which leakage-correlation mapping backs the RG covariance.
enum class CorrelationMode {
  kAnalytic,    ///< exact f_{m,n} from the fitted (a,b,c) triplets
  kSimplified,  ///< rho_{m,n} = rho_L (section 3.1.2; required for MC-characterized libraries)
};

/// The correlation mode a characterized library supports: analytic when it
/// carries fitted models, simplified otherwise.
inline CorrelationMode correlation_mode_for(const charlib::CharacterizedLibrary& chars) {
  return chars.has_models() ? CorrelationMode::kAnalytic : CorrelationMode::kSimplified;
}

/// Immutable Random Gate: leakage mean/variance and distance-dependent
/// covariance for a (library, usage, signal-probability) triple.
class RandomGate {
 public:
  RandomGate(const charlib::CharacterizedLibrary& chars, const netlist::UsageHistogram& usage,
             double signal_probability, CorrelationMode mode);

  /// mu_{X_I} (eq. (7)), nA.
  double mean_na() const { return cov_->mean(); }
  /// sigma^2_{X_I} (eq. (8)), nA^2.
  double variance_na2() const { return cov_->variance(); }
  double sigma_na() const;

  /// Leakage covariance of two RGs as a function of channel-length
  /// correlation: F(rho_L) of eq. (10). Distinct-location branch of eq. (11).
  double covariance_at_rho(double rho_l) const { return cov_->covariance(rho_l); }

  /// out[i] = covariance_at_rho(rho[i]) for i < n, bit for bit, batched
  /// (charlib::RgCovarianceModel::covariance_many); `rho` and `out` may be
  /// the same array.
  void covariances_at_rho(const double* rho, double* out, std::size_t n) const {
    cov_->covariance_many(rho, out, n);
  }

  /// Leakage covariance of two RGs at centre distance d (eq. (11)): the
  /// variance when d == 0, F(rho_total(d)) otherwise. For anisotropic
  /// processes the separation is taken along the x axis.
  double covariance_at_distance(double d_nm) const;

  /// Leakage covariance for an (dx, dy) site offset; respects the process's
  /// correlation anisotropy. Equals covariance_at_distance(hypot(dx, dy))
  /// when isotropic.
  double covariance_at_offset(double dx_nm, double dy_nm) const;

  /// Leakage correlation at distance d: covariance_at_distance / variance.
  double correlation_at_distance(double d_nm) const;

  /// The constant (D2D) part of the leakage covariance: the large-distance
  /// limit F(rho_floor), used by the polar estimator's split (eq. (26)).
  double covariance_floor_na2() const { return covariance_floor_; }

  const process::ProcessVariation& process() const { return process_; }
  CorrelationMode mode() const { return mode_; }

 private:
  process::ProcessVariation process_;
  std::shared_ptr<const charlib::RgCovarianceModel> cov_;
  CorrelationMode mode_;
  double covariance_floor_ = 0.0;
};

}  // namespace rgleak::core
