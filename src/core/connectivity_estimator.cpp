#include "core/connectivity_estimator.h"

#include <cmath>

#include "charlib/correlation_map.h"
#include "core/estimators.h"
#include "util/require.h"

namespace rgleak::core {

ConnectivityAwareEstimator::ConnectivityAwareEstimator(
    const charlib::CharacterizedLibrary& chars, CorrelationMode mode)
    : chars_(&chars), mode_(mode) {
  if (mode_ == CorrelationMode::kAnalytic)
    RGLEAK_REQUIRE(chars.has_models(),
                   "analytic correlation mode needs an analytically characterized library");
}

LeakageEstimate ConnectivityAwareEstimator::estimate(const netlist::ConnectedNetlist& netlist,
                                                     const placement::Floorplan& fp,
                                                     double input_probability) const {
  const std::size_t n = netlist.size();
  RGLEAK_REQUIRE(fp.num_sites() >= n, "floorplan has fewer sites than gates");

  // Propagate probabilities and build per-gate pruned state distributions.
  const std::vector<double> net_probs =
      netlist::propagate_probabilities(netlist, input_probability);
  const auto gate_inputs = netlist::gate_input_probabilities(netlist, net_probs);

  // Per gate: the pruned state distribution's mean and total sigma (the
  // diagonal term) and its Hermite series; in simplified mode the order-1
  // series of the state-weighted process sigma (rho_mn = rho_L applies to the
  // process-variation component only — state choice is independent across
  // gates, so the state-mixing spread must not enter the cross covariance;
  // cf. eq. (10)).
  struct GateDist {
    double mean_na = 0.0;
    double sigma_na = 0.0;
    charlib::HermiteSeries series;
  };
  std::vector<GateDist> dist(n);
  for (std::size_t g = 0; g < n; ++g) {
    const std::size_t ci = netlist.gate(g).cell_index;
    const cells::Cell& cell = chars_->library().cell(ci);
    std::vector<std::pair<std::uint32_t, double>> states;  // (state, prob), pruned
    double total_p = 0.0;
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      double p = 1.0;
      for (int bit = 0; bit < cell.num_inputs(); ++bit)
        p *= ((s >> bit) & 1u) ? gate_inputs[g][static_cast<std::size_t>(bit)]
                               : 1.0 - gate_inputs[g][static_cast<std::size_t>(bit)];
      if (p < 1e-9) continue;
      states.emplace_back(s, p);
      total_p += p;
    }
    RGLEAK_REQUIRE(total_p > 0.0, "gate has empty state distribution");
    // Renormalize after pruning.
    double mean = 0.0, second = 0.0, proc_sigma = 0.0;
    GateDist& d = dist[g];
    for (auto& [s, p] : states) {
      p /= total_p;
      const auto& st = chars_->cell(ci).states[s];
      mean += p * st.mean_na;
      second += p * (st.sigma_na * st.sigma_na + st.mean_na * st.mean_na);
      proc_sigma += p * st.sigma_na;
      if (mode_ == CorrelationMode::kAnalytic) d.series.add_scaled(p, chars_->state_series(ci, s));
    }
    d.mean_na = mean;
    const double var = second - mean * mean;
    d.sigma_na = var > 0.0 ? std::sqrt(var) : 0.0;
    if (mode_ == CorrelationMode::kSimplified)
      d.series = charlib::first_order_series(mean, proc_sigma);
  }

  const std::size_t m = fp.cols;
  const std::vector<double> rho = offset_length_correlation(chars_->process(), fp);

  double mean = 0.0, var = 0.0;
  for (const auto& d : dist) {
    mean += d.mean_na;
    var += d.sigma_na * d.sigma_na;  // diagonal
  }

  for (std::size_t a = 0; a < n; ++a) {
    const std::size_t ra = a / m, ca = a % m;
    for (std::size_t b = a + 1; b < n; ++b) {
      const std::size_t rb = b / m, cb = b % m;
      const std::size_t dr = ra > rb ? ra - rb : rb - ra;
      const std::size_t dc = ca > cb ? ca - cb : cb - ca;
      const double cov = charlib::series_covariance(dist[a].series, dist[b].series,
                                                    rho[dr * m + dc]);
      var += 2.0 * cov;
    }
  }

  LeakageEstimate e;
  e.mean_na = mean;
  e.sigma_na = std::sqrt(std::max(0.0, var));
  return e;
}

}  // namespace rgleak::core
