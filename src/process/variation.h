#pragma once
// Process-variation description (section 2 of the paper).
//
// A parameter such as channel length L has a die-to-die (D2D) component shared
// by every device on a die and a within-die (WID) component that varies across
// the die with spatial correlation:
//   sigma^2 = sigma_dd^2 + sigma_wd^2,
//   rho_total(d) = (sigma_dd^2 + sigma_wd^2 * rho_wid(d)) / sigma^2.
// Vt variation (random dopant fluctuation) is purely random across the die and
// therefore only enters the *mean* of full-chip leakage.

#include <cstddef>
#include <memory>

#include "process/spatial_correlation.h"

namespace rgleak::process {

/// Statistical description of the channel-length parameter (nm).
struct LengthVariation {
  double mean_nm = 40.0;      ///< nominal effective channel length
  double sigma_d2d_nm = 1.77; ///< die-to-die standard deviation
  double sigma_wid_nm = 1.77; ///< within-die standard deviation

  /// Total standard deviation: sqrt(sigma_dd^2 + sigma_wd^2).
  double sigma_total_nm() const;
  /// Fraction of variance that is D2D (the `rho_C` constant of eq. (26)).
  double d2d_variance_fraction() const;
};

/// Random (spatially independent) threshold-voltage variation, V.
struct VtVariation {
  double sigma_v = 0.02;  ///< per-minimum-device sigma of random dopant dVt
};

/// Anisotropy of the WID correlation: offsets are scaled per axis before the
/// isotropic model is evaluated, rho_wid(hypot(dx/scale_x, dy/scale_y)).
/// scale > 1 stretches the correlation along that axis (lithography-induced
/// x/y asymmetry). (1, 1) is isotropic.
struct CorrelationAnisotropy {
  double scale_x = 1.0;
  double scale_y = 1.0;

  bool is_isotropic() const { return scale_x == scale_y; }
};

/// Full process description used by the estimators: length statistics, Vt
/// statistics, and the WID spatial correlation model.
class ProcessVariation {
 public:
  ProcessVariation(LengthVariation length, VtVariation vt,
                   std::shared_ptr<const SpatialCorrelation> wid_correlation,
                   CorrelationAnisotropy anisotropy = {});

  const LengthVariation& length() const { return length_; }
  const VtVariation& vt() const { return vt_; }
  const SpatialCorrelation& wid_correlation() const { return *wid_corr_; }
  std::shared_ptr<const SpatialCorrelation> wid_correlation_ptr() const { return wid_corr_; }

  /// Total channel-length correlation between two devices separated by
  /// distance d (nm), combining D2D (constant) and WID (distance-dependent)
  /// components. rho_total(0) == 1. For anisotropic processes this treats the
  /// separation as lying along the x axis; prefer the (dx, dy) overload.
  double total_length_correlation(double distance_nm) const;

  /// Total channel-length correlation for an (dx, dy) separation, applying
  /// the anisotropy scaling. Equals the distance form when isotropic.
  double total_length_correlation_xy(double dx_nm, double dy_nm) const;

  /// The same correlation along one column of grid offsets: out[j] for the
  /// offset (dx_nm, j * dy_step_nm), j = 0 .. count - 1, with the anisotropy
  /// applied and rho(0, 0) = 1, through one SpatialCorrelation::eval_many
  /// call. Matches total_length_correlation_xy to rounding (the distance is
  /// sqrt(x^2 + y^2), not hypot, and the divisions are hoisted out of the
  /// loops). `dy_step_nm` must be positive.
  void total_length_correlation_column(double dx_nm, double dy_step_nm, std::size_t count,
                                       double* out) const;

  const CorrelationAnisotropy& anisotropy() const { return anisotropy_; }
  bool is_isotropic() const { return anisotropy_.is_isotropic(); }

  /// Distance beyond which the WID component of the correlation is considered
  /// zero (D_max of section 3.2.2); taken from the correlation model, scaled
  /// by the larger anisotropy axis.
  double wid_correlation_range_nm() const;

 private:
  LengthVariation length_;
  VtVariation vt_;
  std::shared_ptr<const SpatialCorrelation> wid_corr_;
  CorrelationAnisotropy anisotropy_;
};

/// A reasonable "virtual 90 nm" default: exponential WID correlation with a
/// 0.5 mm correlation length, equal D2D/WID variance split.
ProcessVariation default_process();

}  // namespace rgleak::process
