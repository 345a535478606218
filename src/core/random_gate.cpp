#include "core/random_gate.h"

#include <cmath>

#include "util/metrics.h"
#include "util/require.h"

namespace rgleak::core {

RandomGate::RandomGate(const charlib::CharacterizedLibrary& chars,
                       const netlist::UsageHistogram& usage, double signal_probability,
                       CorrelationMode mode)
    : process_(chars.process()), mode_(mode) {
  // Same registry as the estimator rungs' histograms, so an estimate job's
  // metrics split into its RG build and its rung.
  static util::metrics::Histogram& build_ms =
      util::metrics::Registry::instance().histogram("estimator.random_gate_ms");
  const util::metrics::ScopedTimerMs timer(build_ms);
  usage.validate();
  const std::vector<charlib::RgComponent> components =
      charlib::make_rg_components(chars, usage.alphas, signal_probability);
  if (mode == CorrelationMode::kAnalytic) {
    RGLEAK_REQUIRE(chars.has_models(),
                   "analytic correlation mode needs an analytically characterized library");
    cov_ = std::make_shared<charlib::AnalyticRgCovariance>(components);
  } else {
    cov_ = std::make_shared<charlib::SimplifiedRgCovariance>(components);
  }
  covariance_floor_ = cov_->covariance(process_.length().d2d_variance_fraction());
}

double RandomGate::sigma_na() const {
  const double v = variance_na2();
  return v > 0.0 ? std::sqrt(v) : 0.0;
}

double RandomGate::covariance_at_distance(double d_nm) const {
  RGLEAK_REQUIRE(d_nm >= 0.0, "distance must be non-negative");
  if (d_nm == 0.0) return variance_na2();
  return cov_->covariance(process_.total_length_correlation(d_nm));
}

double RandomGate::covariance_at_offset(double dx_nm, double dy_nm) const {
  if (dx_nm == 0.0 && dy_nm == 0.0) return variance_na2();
  return cov_->covariance(process_.total_length_correlation_xy(dx_nm, dy_nm));
}

double RandomGate::correlation_at_distance(double d_nm) const {
  const double v = variance_na2();
  RGLEAK_REQUIRE(v > 0.0, "RG has zero variance");
  return covariance_at_distance(d_nm) / v;
}

}  // namespace rgleak::core
