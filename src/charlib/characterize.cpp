#include "charlib/characterize.h"

#include <cmath>
#include <sstream>

#include "math/polyfit.h"
#include "math/stats.h"
#include "util/require.h"

namespace rgleak::charlib {

CharacterizedLibrary::CharacterizedLibrary(const cells::StdCellLibrary* library,
                                           process::ProcessVariation process,
                                           std::vector<CellChar> cells)
    : library_(library), process_(std::move(process)), cells_(std::move(cells)) {
  RGLEAK_REQUIRE(library_ != nullptr, "characterized library needs a cell library");
  RGLEAK_REQUIRE(cells_.size() == library_->size(),
                 "characterization entry count must match library size");
  for (std::size_t i = 0; i < cells_.size(); ++i)
    RGLEAK_REQUIRE(cells_[i].states.size() == library_->cell(i).num_states(),
                   "state count mismatch for cell " + library_->cell(i).name());
}

CharacterizedLibrary CharacterizedLibrary::with_wid_sigma(double sigma_wid_nm) const {
  process::LengthVariation length = process_.length();
  const double sigma_from = length.sigma_total_nm();
  length.sigma_wid_nm = sigma_wid_nm;
  process::ProcessVariation process(length, process_.vt(), process_.wid_correlation_ptr(),
                                    process_.anisotropy());
  const double mu = length.mean_nm;
  const double sigma = length.sigma_total_nm();
  std::vector<CellChar> cells = cells_;
  for (CellChar& c : cells)
    for (StateChar& st : c.states) {
      if (st.model) {
        const math::LogQuadraticMoments moments(*st.model, mu, sigma);
        st.mean_na = moments.mean();
        st.sigma_na = moments.stddev();
      } else if (sigma_from > 0.0) {
        st.sigma_na *= sigma / sigma_from;
      }
    }
  return CharacterizedLibrary(library_, std::move(process), std::move(cells));
}

const CellChar& CharacterizedLibrary::cell(std::size_t index) const {
  RGLEAK_REQUIRE(index < cells_.size(), "cell index out of range");
  return cells_[index];
}

EffectiveCellStats CharacterizedLibrary::effective(std::size_t index,
                                                   const std::vector<double>& state_probs) const {
  const CellChar& c = cell(index);
  RGLEAK_REQUIRE(state_probs.size() == c.states.size(), "state probability count mismatch");
  double mean = 0.0, second = 0.0, total_p = 0.0;
  for (std::size_t s = 0; s < c.states.size(); ++s) {
    const double p = state_probs[s];
    RGLEAK_REQUIRE(p >= 0.0, "state probabilities must be non-negative");
    total_p += p;
    mean += p * c.states[s].mean_na;
    second += p * (c.states[s].sigma_na * c.states[s].sigma_na +
                   c.states[s].mean_na * c.states[s].mean_na);
  }
  RGLEAK_REQUIRE(std::abs(total_p - 1.0) < 1e-6, "state probabilities must sum to 1");
  EffectiveCellStats out;
  out.mean_na = mean;
  const double var = second - mean * mean;
  out.sigma_na = var > 0.0 ? std::sqrt(var) : 0.0;
  return out;
}

std::vector<double> CharacterizedLibrary::state_probabilities(std::size_t index,
                                                              double signal_probability) const {
  RGLEAK_REQUIRE(signal_probability >= 0.0 && signal_probability <= 1.0,
                 "signal probability must be in [0,1]");
  const cells::Cell& c = library_->cell(index);
  const std::uint32_t n_states = c.num_states();
  std::vector<double> probs(n_states);
  for (std::uint32_t s = 0; s < n_states; ++s) {
    double p = 1.0;
    for (int bit = 0; bit < c.num_inputs(); ++bit)
      p *= ((s >> bit) & 1u) ? signal_probability : 1.0 - signal_probability;
    probs[s] = p;
  }
  return probs;
}

bool CharacterizedLibrary::has_models() const {
  for (const auto& c : cells_)
    for (const auto& s : c.states)
      if (!s.model) return false;
  return true;
}

CharacterizedLibrary characterize_monte_carlo(const cells::StdCellLibrary& library,
                                              const process::ProcessVariation& process,
                                              const McCharOptions& options) {
  RGLEAK_REQUIRE(options.samples >= 2, "MC characterization needs >= 2 samples");
  const double mu = process.length().mean_nm;
  const double sigma = process.length().sigma_total_nm();
  const double span = options.table_span_sigma * sigma;
  const double l_min = std::max(mu - span, 1.0);
  const double l_max = mu + std::max(span, 1e-3);

  math::Rng rng(options.seed);
  std::vector<CellChar> cells;
  cells.reserve(library.size());
  for (std::size_t ci = 0; ci < library.size(); ++ci) {
    const cells::Cell& cell = library.cell(ci);
    CellChar cc;
    cc.states.resize(cell.num_states());
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      if (options.run) options.run->poll("characterize_monte_carlo");
      const LeakageTable table(cell, s, library.tech(), l_min, l_max, options.table_points);
      math::RunningStats acc;
      // One shared stream: cell statistics must not depend on library order,
      // so fork a stream per (cell, state).
      math::Rng local = rng.fork();
      for (std::size_t k = 0; k < options.samples; ++k)
        acc.add(table.eval_na(local.normal(mu, sigma)));
      cc.states[s].mean_na = acc.mean();
      cc.states[s].sigma_na = acc.stddev();
    }
    cells.push_back(std::move(cc));
  }
  return CharacterizedLibrary(&library, process, std::move(cells));
}

math::LogQuadraticModel fit_log_quadratic(const cells::Cell& cell, std::uint32_t state,
                                          const device::TechnologyParams& tech, double mu_l_nm,
                                          double sigma_l_nm, const AnalyticCharOptions& options) {
  RGLEAK_REQUIRE(options.fit_points >= 3, "log-quadratic fit needs >= 3 points");
  const double span = options.fit_span_sigma * sigma_l_nm;
  const double lo = std::max(mu_l_nm - span, 1.0);
  const double hi = mu_l_nm + std::max(span, 1e-3);
  std::vector<double> ls(options.fit_points), logs(options.fit_points);
  for (std::size_t i = 0; i < options.fit_points; ++i) {
    const double l = lo + (hi - lo) * static_cast<double>(i) /
                              static_cast<double>(options.fit_points - 1);
    const double leak = cell.leakage_na(state, l, tech);
    RGLEAK_REQUIRE(leak > 0.0, "cell leakage must be positive");
    ls[i] = l - mu_l_nm;  // center the regressor for conditioning
    logs[i] = std::log(leak);
  }
  math::PolyfitInfo fit_info;
  const std::vector<double> coef = math::polyfit(ls, logs, 2, &fit_info);
  // Centered regressors keep the Vandermonde well conditioned; a huge
  // condition number means the fit span collapsed and the coefficients are
  // garbage — better to refuse than to ship a bogus (a, b, c).
  constexpr double kMaxFitCondition = 1e10;
  if (fit_info.condition > kMaxFitCondition) {
    std::ostringstream os;
    os << "log-quadratic fit for cell " << cell.name() << " state " << state
       << " is ill-conditioned (condition " << fit_info.condition << " over L in [" << lo << ", "
       << hi << "] nm)";
    throw NumericalError(os.str());
  }
  // Un-center: ln I = k0 + k1 (L - mu) + k2 (L - mu)^2
  //                 = (k0 - k1 mu + k2 mu^2) + (k1 - 2 k2 mu) L + k2 L^2.
  math::LogQuadraticModel m;
  m.c = coef[2];
  m.b = coef[1] - 2.0 * coef[2] * mu_l_nm;
  m.a = std::exp(coef[0] - coef[1] * mu_l_nm + coef[2] * mu_l_nm * mu_l_nm);
  return m;
}

CharacterizedLibrary characterize_analytic(const cells::StdCellLibrary& library,
                                           const process::ProcessVariation& process,
                                           const AnalyticCharOptions& options) {
  const double mu = process.length().mean_nm;
  const double sigma = process.length().sigma_total_nm();
  std::vector<CellChar> cells;
  cells.reserve(library.size());
  for (std::size_t ci = 0; ci < library.size(); ++ci) {
    const cells::Cell& cell = library.cell(ci);
    CellChar cc;
    cc.states.resize(cell.num_states());
    for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
      if (options.run) options.run->poll("characterize_analytic");
      const math::LogQuadraticModel model =
          fit_log_quadratic(cell, s, library.tech(), mu, sigma, options);
      const math::LogQuadraticMoments moments(model, mu, sigma);
      cc.states[s].mean_na = moments.mean();
      cc.states[s].sigma_na = moments.stddev();
      cc.states[s].model = model;
    }
    cells.push_back(std::move(cc));
  }
  return CharacterizedLibrary(&library, process, std::move(cells));
}

}  // namespace rgleak::charlib
