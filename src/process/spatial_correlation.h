#pragma once
// Within-die spatial correlation models rho_wid(d).
//
// The paper assumes the existence of a valid correlation function of distance
// [Xiong/Zolotov/He, ISPD'06]; we provide the standard families. All models
// satisfy rho(0) = 1, |rho| <= 1, and are non-increasing in distance.

#include <memory>
#include <string>

namespace rgleak::process {

/// Interface for an isotropic WID correlation function of distance (nm).
class SpatialCorrelation {
 public:
  virtual ~SpatialCorrelation() = default;

  /// Correlation at separation `distance_nm` >= 0.
  virtual double operator()(double distance_nm) const = 0;

  /// Distance at which the correlation is (effectively) zero; used by the
  /// polar-form estimator as the integration cutoff D_max. For models with
  /// infinite support this is the distance where rho drops below 1e-6.
  virtual double range_nm() const = 0;

  virtual std::string name() const = 0;
};

/// rho(d) = exp(-d / lc).
class ExponentialCorrelation final : public SpatialCorrelation {
 public:
  explicit ExponentialCorrelation(double correlation_length_nm);
  double operator()(double d) const override;
  double range_nm() const override;
  std::string name() const override { return "exponential"; }
  double correlation_length_nm() const { return lc_; }

 private:
  double lc_;
};

/// rho(d) = exp(-(d / lc)^2) (squared-exponential / Gaussian kernel).
class GaussianCorrelation final : public SpatialCorrelation {
 public:
  explicit GaussianCorrelation(double correlation_length_nm);
  double operator()(double d) const override;
  double range_nm() const override;
  std::string name() const override { return "gaussian"; }

 private:
  double lc_;
};

/// rho(d) = max(0, 1 - d / dmax): the linear taper with compact support often
/// used in SSTA grid models. Note: in 2-D this kernel is not positive
/// definite in the strict sense; the field sampler clamps the (slightly)
/// negative embedding eigenvalues it induces.
class LinearCorrelation final : public SpatialCorrelation {
 public:
  explicit LinearCorrelation(double dmax_nm);
  double operator()(double d) const override;
  double range_nm() const override { return dmax_; }
  std::string name() const override { return "linear"; }

 private:
  double dmax_;
};

/// Spherical model: rho(d) = 1 - 1.5 (d/D) + 0.5 (d/D)^3 for d < D, else 0.
/// Compactly supported and positive definite in up to 3 dimensions.
class SphericalCorrelation final : public SpatialCorrelation {
 public:
  explicit SphericalCorrelation(double dmax_nm);
  double operator()(double d) const override;
  double range_nm() const override { return dmax_; }
  std::string name() const override { return "spherical"; }

 private:
  double dmax_;
};

/// Matern nu=3/2: rho(d) = (1 + sqrt(3) d/lc) exp(-sqrt(3) d/lc). Smoother
/// than exponential at the origin, a common fit from silicon measurements
/// (robust-extraction flows a la Xiong/Zolotov/He).
class Matern32Correlation final : public SpatialCorrelation {
 public:
  explicit Matern32Correlation(double correlation_length_nm);
  double operator()(double d) const override;
  double range_nm() const override;
  std::string name() const override { return "matern32"; }

 private:
  double lc_;
};

/// Power-exponential family: rho(d) = exp(-(d/lc)^p), p in (0, 2]. p = 1 is
/// exponential, p = 2 Gaussian; fractional p fits heavy-tailed measured
/// correlations.
class PowerExponentialCorrelation final : public SpatialCorrelation {
 public:
  PowerExponentialCorrelation(double correlation_length_nm, double power);
  double operator()(double d) const override;
  double range_nm() const override;
  std::string name() const override { return "powerexp"; }
  double power() const { return p_; }

 private:
  double lc_, p_;
};

/// Factory by name ("exponential", "gaussian", "linear", "spherical",
/// "matern32") with a single scale parameter; used by examples/benches to
/// sweep model families. ("powerexp" needs its exponent and is constructed
/// directly.)
std::shared_ptr<const SpatialCorrelation> make_correlation(const std::string& name,
                                                           double scale_nm);

/// Recovers the scale parameter a factory family was built from: the support
/// radius for compact models, else the distance where rho = e^-1 (a Brent root).
/// Used by serialization and by sensitivity sweeps that rescale the model.
double correlation_scale_nm(const SpatialCorrelation& corr);

}  // namespace rgleak::process
