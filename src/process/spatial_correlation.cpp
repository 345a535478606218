#include "process/spatial_correlation.h"

#include <cmath>

#include "math/root.h"
#include "util/require.h"

namespace rgleak::process {

namespace {
constexpr double kNegligible = 1e-6;

void check_distance(double d) { RGLEAK_REQUIRE(d >= 0.0, "distance must be non-negative"); }
}  // namespace

ExponentialCorrelation::ExponentialCorrelation(double correlation_length_nm)
    : lc_(correlation_length_nm) {
  RGLEAK_REQUIRE(lc_ > 0.0, "correlation length must be positive");
}

double ExponentialCorrelation::operator()(double d) const {
  check_distance(d);
  return std::exp(-d / lc_);
}

double ExponentialCorrelation::range_nm() const { return -lc_ * std::log(kNegligible); }

GaussianCorrelation::GaussianCorrelation(double correlation_length_nm)
    : lc_(correlation_length_nm) {
  RGLEAK_REQUIRE(lc_ > 0.0, "correlation length must be positive");
}

double GaussianCorrelation::operator()(double d) const {
  check_distance(d);
  const double r = d / lc_;
  return std::exp(-r * r);
}

double GaussianCorrelation::range_nm() const { return lc_ * std::sqrt(-std::log(kNegligible)); }

LinearCorrelation::LinearCorrelation(double dmax_nm) : dmax_(dmax_nm) {
  RGLEAK_REQUIRE(dmax_ > 0.0, "dmax must be positive");
}

double LinearCorrelation::operator()(double d) const {
  check_distance(d);
  return d >= dmax_ ? 0.0 : 1.0 - d / dmax_;
}

SphericalCorrelation::SphericalCorrelation(double dmax_nm) : dmax_(dmax_nm) {
  RGLEAK_REQUIRE(dmax_ > 0.0, "dmax must be positive");
}

double SphericalCorrelation::operator()(double d) const {
  check_distance(d);
  if (d >= dmax_) return 0.0;
  const double r = d / dmax_;
  return 1.0 - 1.5 * r + 0.5 * r * r * r;
}

Matern32Correlation::Matern32Correlation(double correlation_length_nm)
    : lc_(correlation_length_nm) {
  RGLEAK_REQUIRE(lc_ > 0.0, "correlation length must be positive");
}

double Matern32Correlation::operator()(double d) const {
  check_distance(d);
  const double r = std::sqrt(3.0) * d / lc_;
  return (1.0 + r) * std::exp(-r);
}

double Matern32Correlation::range_nm() const {
  // Solve (1 + r) e^-r = kNegligible.
  const double r = math::brent_root(
      [](double x) { return kNegligible - (1.0 + x) * std::exp(-x); }, 0.0, 100.0, 0.0);
  return r * lc_ / std::sqrt(3.0);
}

PowerExponentialCorrelation::PowerExponentialCorrelation(double correlation_length_nm,
                                                         double power)
    : lc_(correlation_length_nm), p_(power) {
  RGLEAK_REQUIRE(lc_ > 0.0, "correlation length must be positive");
  RGLEAK_REQUIRE(p_ > 0.0 && p_ <= 2.0, "power-exponential exponent must be in (0, 2]");
}

double PowerExponentialCorrelation::operator()(double d) const {
  check_distance(d);
  return std::exp(-std::pow(d / lc_, p_));
}

double PowerExponentialCorrelation::range_nm() const {
  return lc_ * std::pow(-std::log(kNegligible), 1.0 / p_);
}

double correlation_scale_nm(const SpatialCorrelation& corr) {
  const std::string name = corr.name();
  if (name == "linear" || name == "spherical") return corr.range_nm();
  const double target = std::exp(-1.0);
  return math::brent_root([&](double d) { return target - corr(d); }, 0.0, corr.range_nm(), 0.0);
}

std::shared_ptr<const SpatialCorrelation> make_correlation(const std::string& name,
                                                           double scale_nm) {
  if (name == "exponential") return std::make_shared<ExponentialCorrelation>(scale_nm);
  if (name == "gaussian") return std::make_shared<GaussianCorrelation>(scale_nm);
  if (name == "linear") return std::make_shared<LinearCorrelation>(scale_nm);
  if (name == "spherical") return std::make_shared<SphericalCorrelation>(scale_nm);
  if (name == "matern32") return std::make_shared<Matern32Correlation>(scale_nm);
  // Typically fed from user input (CLI flag, .rgchar file): a configuration
  // error, not a caller bug.
  throw ConfigError("unknown correlation model: " + name);
}

}  // namespace rgleak::process
