#include "core/estimators.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "core/cost_model.h"
#include "math/fft.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/memory.h"
#include "util/require.h"

namespace rgleak::core {

namespace {

// Shared post-condition for every estimator: mean and variance must be finite
// and the variance non-negative up to accumulated rounding. Tiny negative
// variances (cancellation in the pair sums) are clamped to zero downstream; a
// materially negative or non-finite result means the inputs are inconsistent
// and is reported instead of propagating NaN into reports.
LeakageEstimate checked_estimate(const char* estimator, const char* method, double mean,
                                 double var, std::size_t gates, const placement::Floorplan& fp) {
  constexpr double kVarSlack = 1e-6;
  if (!std::isfinite(mean) || !std::isfinite(var) || var < -kVarSlack * (mean * mean + 1.0)) {
    std::ostringstream os;
    os << estimator << ": non-physical result (mean " << mean << " nA, variance " << var
       << " nA^2) for " << gates << " gates on a " << fp.rows << "x" << fp.cols << " site grid ("
       << fp.width_nm() * 1e-3 << " x " << fp.height_nm() * 1e-3 << " um)";
    throw NumericalError(os.str());
  }
  LeakageEstimate e;
  e.mean_na = mean;
  e.sigma_na = std::sqrt(std::max(0.0, var));
  e.method = method;
  return e;
}

}  // namespace

LeakageEstimate estimate_linear(const RandomGate& rg, const placement::Floorplan& fp,
                                const util::RunControl* run) {
  // Per-rung wall-clock histograms: this is what attributes batch cost across
  // the paper's estimator ladder (exact -> linear -> integral). Instrument
  // references resolve once per process; after that each call is a scoped
  // steady_clock read plus one histogram observe.
  static util::metrics::Histogram& rung_ms =
      util::metrics::Registry::instance().histogram("estimator.linear_ms");
  const util::metrics::ScopedTimerMs timer(rung_ms);
  const std::size_t k = fp.rows, m = fp.cols;
  const double n = static_cast<double>(fp.num_sites());
  // Signed offsets (i, j) folded to i, j >= 0 with multiplicity 2 per nonzero
  // axis; n_ij = (m - i)(k - j) occurrences per signed offset (eq. (16)).
  // One column of offsets (fixed i) at a time: its rho_L in one batched
  // kernel call, F(rho_L) for all of them, then the column's weighted sum.
  // The buffers belong to this call, so concurrent calls share nothing.
  std::vector<double> rho(k), cov(k);
  double var = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    if (run != nullptr) run->poll("estimate_linear");
    rg.process().total_length_correlation_column(static_cast<double>(i) * fp.site_w_nm,
                                                 fp.site_h_nm, k, rho.data());
    rg.covariances_at_rho(rho.data(), cov.data(), k);
    if (i == 0) cov[0] = rg.variance_na2();  // same site: eq. (11)'s variance branch
    double s = 0.0;
    for (std::size_t j = 1; j < k; ++j) s += static_cast<double>(k - j) * cov[j];
    s = static_cast<double>(k) * cov[0] + 2.0 * s;
    const double wx = (i == 0 ? 1.0 : 2.0) * static_cast<double>(m - i);
    var += wx * RGLEAK_FAILPOINT_DOUBLE("estimate.linear.cov", s);
  }
  return checked_estimate("estimate_linear", "linear", n * rg.mean_na(), var, fp.num_sites(), fp);
}

std::vector<double> offset_length_correlation(const process::ProcessVariation& pv,
                                              const placement::Floorplan& fp) {
  const std::size_t k = fp.rows, m = fp.cols;
  std::vector<double> rho(k * m), column(k);
  for (std::size_t i = 0; i < m; ++i) {
    pv.total_length_correlation_column(static_cast<double>(i) * fp.site_w_nm, fp.site_h_nm, k,
                                       column.data());
    for (std::size_t j = 0; j < k; ++j) rho[j * m + i] = column[j];
  }
  return rho;
}

double rect_angular_weight(double w, double h, double r) {
  // G(r) = int (W - r cos t)(H - r sin t) dt over the t in [0, pi/2] whose
  // offset (r cos t, r sin t) lies inside the W x H rectangle.
  if (r <= std::min(w, h)) return 0.5 * r * r - (w + h) * r + 0.5 * M_PI * w * h;  // eq. (24)
  const double t_lo = std::acos(std::min(1.0, w / r));
  const double t_hi = std::asin(std::min(1.0, h / r));
  if (t_hi <= t_lo) return 0.0;
  const auto antiderivative = [&](double t) {
    const double s = std::sin(t);
    return w * h * t + w * r * std::cos(t) - h * r * s + 0.5 * r * r * s * s;
  };
  return antiderivative(t_hi) - antiderivative(t_lo);
}

namespace {

// Eq. (20) by its exact radial reduction. Offsets are rescaled per axis to
// the frame where the kernel is isotropic (W' = W/s_x, H' = H/s_y; the pair
// density and the area rescale together, so 4 n^2/A^2 keeps its form in
// primed units). There, polar coordinates give
//   int_0^W' int_0^H' (W'-x)(H'-y) C(|(x, y)|) dy dx = int_0^diag' C(r) r G(r) dr,
// and eq. (26)'s split integrates only C - c_floor, up to D_max', adding the
// D2D floor's n^2 c_floor in closed form. G changes its closed form at
// min(W', H') and max(W', H'), so the radial integral is split there.
double integral_variance(const RandomGate& rg, const placement::Floorplan& fp,
                         const math::QuadratureOptions& opts) {
  const process::CorrelationAnisotropy& axes = rg.process().anisotropy();
  const double w = fp.width_nm() / axes.scale_x, h = fp.height_nm() / axes.scale_y;
  const double n = static_cast<double>(fp.num_sites());
  const double c_floor = rg.covariance_floor_na2();
  const double end = std::min(rg.process().wid_correlation().range_nm(), std::hypot(w, h));
  const auto integrand = [&](double r) {
    return (rg.covariance_at_offset(r * axes.scale_x, 0.0) - c_floor) * r *
           rect_angular_weight(w, h, r);
  };
  double integral = 0.0, from = 0.0;
  for (double to : {std::min(w, h), std::max(w, h), end}) {
    to = std::min(to, end);
    if (to <= from) continue;
    integral += math::integrate_adaptive(integrand, from, to, opts);
    from = to;
  }
  return 4.0 * n * n / (w * w * h * h) * integral + n * n * c_floor;
}

}  // namespace

LeakageEstimate estimate_integral_rect(const RandomGate& rg, const placement::Floorplan& fp,
                                       const math::QuadratureOptions& opts) {
  static util::metrics::Histogram& rung_ms =
      util::metrics::Registry::instance().histogram("estimator.integral_rect_ms");
  const util::metrics::ScopedTimerMs timer(rung_ms);
  return checked_estimate("estimate_integral_rect", "integral_rect",
                          static_cast<double>(fp.num_sites()) * rg.mean_na(),
                          integral_variance(rg, fp, opts), fp.num_sites(), fp);
}

LeakageEstimate estimate_integral_polar(const RandomGate& rg, const placement::Floorplan& fp,
                                        const math::QuadratureOptions& opts, bool* used_polar) {
  static util::metrics::Histogram& rung_ms =
      util::metrics::Registry::instance().histogram("estimator.integral_polar_ms");
  const util::metrics::ScopedTimerMs timer(rung_ms);
  if (rg.process().wid_correlation_range_nm() >= std::min(fp.width_nm(), fp.height_nm()) ||
      !rg.process().is_isotropic()) {
    // Validity conditions of section 3.2.2 not met (the polar reduction
    // additionally needs an isotropic kernel); use the rectangular form.
    if (used_polar != nullptr) *used_polar = false;
    return estimate_integral_rect(rg, fp, opts);
  }
  if (used_polar != nullptr) *used_polar = true;
  // Inside its validity region eq. (25) is the radial reduction with G = g of
  // eq. (24) on all of [0, D_max], so both rungs share one evaluation.
  return checked_estimate("estimate_integral_polar", "integral_polar",
                          static_cast<double>(fp.num_sites()) * rg.mean_na(),
                          integral_variance(rg, fp, opts), fp.num_sites(), fp);
}

ExactEstimator::ExactEstimator(const charlib::CharacterizedLibrary& chars,
                               double signal_probability, CorrelationMode mode)
    : chars_(&chars), num_types_(chars.size()) {
  if (mode == CorrelationMode::kAnalytic) {
    RGLEAK_REQUIRE(chars.has_models(),
                   "analytic correlation mode needs an analytically characterized library");
  }
  effective_.resize(num_types_);
  series_.resize(num_types_);
  for (std::size_t i = 0; i < num_types_; ++i) {
    const std::vector<double> probs = chars.state_probabilities(i, signal_probability);
    effective_[i] = chars.effective(i, probs);
    const std::vector<charlib::StateChar>& states = chars.cell(i).states;
    if (mode == CorrelationMode::kAnalytic) {
      for (std::size_t s = 0; s < states.size(); ++s)
        if (probs[s] != 0.0) series_[i].add_scaled(probs[s], chars.state_series(i, s));
    } else {
      // State-weighted process sigma: the component of spread that is shared
      // through L (state choice is independent across gates and must not
      // enter cross covariances; cf. eq. (10)).
      double ps = 0.0;
      for (std::size_t s = 0; s < states.size(); ++s) ps += probs[s] * states[s].sigma_na;
      series_[i] = charlib::first_order_series(effective_[i].mean_na, ps);
    }
  }
}

double ExactEstimator::type_covariance(std::size_t type_m, std::size_t type_n,
                                       double rho_l) const {
  RGLEAK_REQUIRE(type_m < num_types_ && type_n < num_types_, "cell type out of range");
  RGLEAK_REQUIRE(rho_l >= 0.0 && rho_l <= 1.0, "rho_L must be in [0, 1]");
  return charlib::series_covariance(series_[type_m], series_[type_n], rho_l);
}

ExactMethod resolve_exact_method(ExactMethod method, std::size_t sites) {
  if (method != ExactMethod::kAuto) return method;
  return sites >= 64 ? ExactMethod::kFft : ExactMethod::kDirect;
}

LeakageEstimate ExactEstimator::estimate(const placement::Placement& placement,
                                         const ExactOptions& options) const {
  return estimate_at(placement, nullptr, options);
}

LeakageEstimate ExactEstimator::estimate(const placement::Placement& placement,
                                         const std::vector<double>& rho,
                                         const ExactOptions& options) const {
  RGLEAK_REQUIRE(rho.size() == placement.floorplan().num_sites(),
                 "one length correlation per grid offset");
  return estimate_at(placement, &rho, options);
}

LeakageEstimate ExactEstimator::estimate_at(const placement::Placement& placement,
                                            const std::vector<double>* rho,
                                            const ExactOptions& options) const {
  const ExactMethod method =
      resolve_exact_method(options.method, placement.floorplan().num_sites());
  util::ThreadPool& pool =
      options.pool ? *options.pool : util::ThreadPool::shared(options.threads);
  try {
    const std::vector<double> own =
        rho ? std::vector<double>()
            : offset_length_correlation(chars_->process(), placement.floorplan());
    const std::vector<double>& r = rho ? *rho : own;
    return method == ExactMethod::kFft ? estimate_fft(placement, r, pool, options.run)
                                       : estimate_direct(placement, r, pool, options.run);
  } catch (const std::bad_alloc&) {
    // Translate allocation failure (real or injected at the *.alloc
    // failpoints) into a located taxonomy error so a starved estimate fails
    // typed instead of crashing its process.
    std::ostringstream os;
    os << "ExactEstimator::estimate: out of memory on the "
       << (method == ExactMethod::kFft ? "fft" : "direct") << " path ("
       << placement.netlist().size() << " gates, " << placement.floorplan().rows << "x"
       << placement.floorplan().cols << " sites)";
    throw ResourceError(os.str());
  }
}

LeakageEstimate ExactEstimator::estimate_direct(const placement::Placement& placement,
                                                const std::vector<double>& rho,
                                                util::ThreadPool& pool,
                                                const util::RunControl* run) const {
  static util::metrics::Histogram& rung_ms =
      util::metrics::Registry::instance().histogram("estimator.exact_direct_ms");
  const util::metrics::ScopedTimerMs timer(rung_ms);
  const netlist::Netlist& nl = placement.netlist();
  const std::size_t n = nl.size();
  const placement::Floorplan& fp = placement.floorplan();
  const std::size_t m = fp.cols;

  // Charge this path's arenas (gate tables + offset grid + tile partials)
  // against the process memory budget for the duration of the estimate.
  RGLEAK_FAILPOINT("core.exact.direct.alloc");
  const util::MemoryReservation arena(
      CostModel::exact_direct_bytes(n, fp.rows, fp.cols), "core.exact.direct");

  // Pre-resolve gate types and coordinates for the tiled loop below.
  std::vector<std::size_t> type(n), row(n), col(n);
  for (std::size_t i = 0; i < n; ++i) {
    type[i] = nl.gate(i).cell_index;
    const std::size_t site = placement.site_of(i);
    row[i] = site / m;
    col[i] = site % m;
  }

  double mean = 0.0, var = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += effective_[type[i]].mean_na;
  // Diagonal: same gate, same location -> its own variance.
  for (std::size_t i = 0; i < n; ++i) var += effective_[type[i]].sigma_na * effective_[type[i]].sigma_na;

  // Off-diagonal pairs, tiled over blocks of `a` rows. The tiling is fixed
  // (independent of the thread count) and the per-tile partial sums are
  // reduced in tile order, so the result is identical for any thread count.
  constexpr std::size_t kTile = 64;
  const std::size_t tiles = (n + kTile - 1) / kTile;
  std::vector<double> partial(tiles, 0.0);
  // `run` is polled before each tile claim: an armed deadline or stop cancels
  // the estimate within one tile (parallel_for drains and throws).
  pool.parallel_for(tiles, [&](std::size_t ti) {
    RGLEAK_FAILPOINT("exact.direct_tile");
    const std::size_t a_end = std::min(n, (ti + 1) * kTile);
    double s = 0.0;
    for (std::size_t a = ti * kTile; a < a_end; ++a) {
      const std::size_t ra = row[a], ca = col[a], ta = type[a];
      for (std::size_t b = a + 1; b < n; ++b) {
        const std::size_t dr = ra > row[b] ? ra - row[b] : row[b] - ra;
        const std::size_t dc = ca > col[b] ? ca - col[b] : col[b] - ca;
        s += charlib::series_covariance(series_[ta], series_[type[b]], rho[dr * m + dc]);
      }
    }
    partial[ti] = s;
  }, run);
  for (std::size_t ti = 0; ti < tiles; ++ti) var += 2.0 * partial[ti];

  return checked_estimate("ExactEstimator::estimate_direct", "exact_direct", mean, var, n, fp);
}

LeakageEstimate ExactEstimator::estimate_fft(const placement::Placement& placement,
                                             const std::vector<double>& rho,
                                             util::ThreadPool& pool,
                                             const util::RunControl* run) const {
  static util::metrics::Histogram& rung_ms =
      util::metrics::Registry::instance().histogram("estimator.exact_fft_ms");
  static util::metrics::Counter& transforms =
      util::metrics::Registry::instance().counter("estimator.exact_fft_transforms");
  const util::metrics::ScopedTimerMs timer(rung_ms);
  const netlist::Netlist& nl = placement.netlist();
  const std::size_t n = nl.size();
  const placement::Floorplan& fp = placement.floorplan();
  const std::size_t k = fp.rows, m = fp.cols;

  // Self terms, and the k = 0 series term g_0 g_0' - mean mean' over ordered
  // pairs of distinct gates in closed form: with d = g_0 - mean and
  // s = g_0 + mean it is (sum d)(sum s) - sum d s, which stays exact where
  // g_0 = mean.
  double mean = 0.0, diag = 0.0, d_sum = 0.0, s_sum = 0.0, ds_sum = 0.0;
  std::size_t order = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t t = nl.gate(i).cell_index;
    mean += effective_[t].mean_na;
    diag += effective_[t].sigma_na * effective_[t].sigma_na;
    const double d = series_[t].g[0] - series_[t].mean_na;
    const double s = series_[t].g[0] + series_[t].mean_na;
    d_sum += d;
    s_sum += s;
    ds_sum += d * s;
    order = std::max(order, series_[t].order());
  }

  RGLEAK_FAILPOINT("core.exact.fft.alloc");
  const util::MemoryReservation arena(CostModel::exact_fft_bytes(k, m), "core.exact.fft");

  // For orders (j, j + 1): per-site weights g_j, g_{j+1} of the placed cell
  // types, their folded autocorrelations R_j, R_{j+1} (computed in place),
  // and the dot with rho^j, rho^{j+1} over every offset but (0, 0), whose
  // self pairs are the diagonal above. Orders add in sequence, so the sum
  // does not depend on the thread count.
  double var = diag + (d_sum * s_sum - ds_sum);
  std::vector<double> power(k * m, 1.0);  // rho^(j-1) entering pair (j, j+1)
  std::vector<double> wa(k * m), wb(k * m);
  math::FoldedAutocorrelation2D acf(k, m);
  for (std::size_t j = 1; j <= order; j += 2) {
    RGLEAK_FAILPOINT("exact.fft_pair");
    const bool two = j + 1 <= order;
    std::fill(wa.begin(), wa.end(), 0.0);
    std::fill(wb.begin(), wb.end(), 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::vector<double>& g = series_[nl.gate(i).cell_index].g;
      const std::size_t site = placement.site_of(i);
      if (j < g.size()) wa[site] = g[j];
      if (j + 1 < g.size()) wb[site] = g[j + 1];
    }
    acf.correlate(wa.data(), two ? wb.data() : nullptr, wa.data(), two ? wb.data() : nullptr,
                  pool, run);
    transforms.add(2);
    double sa = 0.0, sb = 0.0;
    for (std::size_t off = 1; off < k * m; ++off) {
      const double pa = power[off] * rho[off];
      const double pb = pa * rho[off];
      sa += wa[off] * pa;
      sb += wb[off] * pb;
      power[off] = pb;
    }
    var += sa;
    var += sb;
  }
  return checked_estimate("ExactEstimator::estimate_fft", "exact_fft", mean, var, n, fp);
}

double vt_mean_factor(const process::VtVariation& vt, const device::TechnologyParams& tech) {
  const double n_vt = tech.subthreshold_n * tech.thermal_vt_v;
  const double z = vt.sigma_v / n_vt;
  return std::exp(0.5 * z * z);
}

}  // namespace rgleak::core
