#pragma once
// The three full-chip estimators of section 3, plus the O(n^2) exact baseline:
//
//  * estimate_linear      — eq. (17): exact distance-histogram transformation
//                           of the pairwise sum; O(n) in the site count.
//  * estimate_integral_rect — eq. (20): the rectangular-coordinate integral,
//                           evaluated by its exact reduction to one radial
//                           integral (with eq. (26)'s D2D split); O(1) in the
//                           site count, any anisotropy.
//  * estimate_integral_polar — eqs (25)/(26): the 1-D polar integral with the
//                           D2D constant split; O(1); requires an isotropic
//                           kernel whose WID range fits inside min(W, H), else
//                           falls back to the rectangular form. Where valid it
//                           is the same radial integral as the rect form.
//  * ExactEstimator       — the "true leakage" of a specific placed design:
//                           the full pairwise covariance sum. This is the
//                           baseline the paper compares against (Table 1,
//                           Fig. 6). Two evaluation paths: the direct O(n^2)
//                           double loop (reference; thread-pool tiled), and
//                           an exact offset transform — the pair covariance
//                           is the Hermite series sum_k rho^k g_k(t) g_k(u)
//                           (charlib/hermite_series.h), so the sum collapses
//                           to sum_k sum_offsets R_k(offset) rho(offset)^k,
//                           with R_k the autocorrelation of the grid of
//                           per-site g_k, two orders per complex 2-D FFT:
//                           O(K n log n) for K ~ 12 series orders, whatever
//                           the number of placed cell types.

#include <vector>

#include "core/estimate.h"
#include "core/random_gate.h"
#include "math/quadrature.h"
#include "placement/placement.h"
#include "util/run_control.h"
#include "util/thread_pool.h"

namespace rgleak::core {

/// Eq. (17): exact O(n) evaluation of the RG-array leakage variance over a
/// k x m floorplan; mean = n * mu_XI. The sum runs one column of offsets at a
/// time (ProcessVariation::total_length_correlation_column, then
/// RandomGate::covariances_at_rho). `run`, when given, is polled once per
/// column, so a deadline cancels the sum at column granularity.
LeakageEstimate estimate_linear(const RandomGate& rg, const placement::Floorplan& fp,
                                const util::RunControl* run = nullptr);

/// rho_L per grid offset of `fp`, entry |drow| * cols + |dcol|: the process's
/// total length correlation, one column of offsets per
/// ProcessVariation::total_length_correlation_column call.
std::vector<double> offset_length_correlation(const process::ProcessVariation& pv,
                                              const placement::Floorplan& fp);

/// Eq. (20): constant-time integral approximation over the W x H die. The
/// 2-D integral is computed exactly as a 1-D radial one,
///   int_0^min(D_max, diag) (C(r) - c_floor) r G(r) dr  +  D2D floor,
/// in the frame where the kernel is isotropic (W' = W/s_x, H' = H/s_y), with
/// G from rect_angular_weight. `opts` sets the adaptive Simpson tolerances.
LeakageEstimate estimate_integral_rect(const RandomGate& rg, const placement::Floorplan& fp,
                                       const math::QuadratureOptions& opts = {});

/// G(r) of the radial reduction: the integral of (W - r cos t)(H - r sin t)
/// over the angles t in [0, pi/2] with (r cos t, r sin t) inside the W x H
/// rectangle, i.e. t in [arccos(min(1, W/r)), arcsin(min(1, H/r))]. It is the
/// within-rectangle distance density up to normalization (Ghosh 1951), equals
/// eq. (24)'s g(r) for r <= min(W, H), and vanishes at the diagonal.
double rect_angular_weight(double w, double h, double r);

/// Eqs (25)-(26): constant-time 1-D polar integral with the D2D split. Falls
/// back to the rectangular form when D_max >= min(W, H) (the paper's validity
/// condition) or the kernel is anisotropic; `used_polar`, when given, reports
/// which path ran. Where it is valid, it returns the rect form's value.
LeakageEstimate estimate_integral_polar(const RandomGate& rg, const placement::Floorplan& fp,
                                        const math::QuadratureOptions& opts = {},
                                        bool* used_polar = nullptr);

/// Evaluation path for the exact pairwise sum.
enum class ExactMethod {
  kAuto,    ///< FFT for large grids, direct for tiny ones.
  kDirect,  ///< O(n^2) pairwise double loop (tiled over the thread pool).
  kFft,     ///< O(K n log n) FFT offset sums, K series orders.
};

/// The path `method` runs on a grid of `sites` sites: kAuto is the FFT
/// transform, which wins everywhere except on grids under 64 sites, where its
/// padding overhead dominates. Every caller resolves kAuto here.
ExactMethod resolve_exact_method(ExactMethod method, std::size_t sites);

struct ExactOptions {
  ExactMethod method = ExactMethod::kAuto;
  /// Worker threads; 0 = hardware concurrency. Results are identical for
  /// every thread count (fixed tiling, fixed-order reduction). Pools are
  /// cached per thread count, so repeated estimates reuse workers.
  std::size_t threads = 0;
  /// Optional caller-provided pool; overrides `threads` when non-null.
  util::ThreadPool* pool = nullptr;
  /// Optional run control: polled between chunks (direct-path tiles, FFT
  /// row and column batches), so an armed deadline or a stop request
  /// cancels the estimate within one chunk (DeadlineExceeded). Unarmed cost
  /// is one relaxed atomic load per chunk.
  const util::RunControl* run = nullptr;
};

/// The "true leakage" of a placed design. The covariance between two placed
/// gates mixes the per-state pairwise covariances of their cell types under
/// the signal-probability state distribution; in analytic mode these come
/// from the f_{m,n} mapping through its Hermite series (one state-mixed
/// coefficient vector per cell type), in simplified mode cov = sigma_m
/// sigma_n rho_L(d), the same series at order 1. Immutable after
/// construction, so concurrent estimate() / type_covariance() calls are safe.
class ExactEstimator {
 public:
  ExactEstimator(const charlib::CharacterizedLibrary& chars, double signal_probability,
                 CorrelationMode mode);

  ExactEstimator(const ExactEstimator&) = delete;
  ExactEstimator& operator=(const ExactEstimator&) = delete;

  /// Full pairwise estimate for a placed netlist.
  LeakageEstimate estimate(const placement::Placement& placement,
                           const ExactOptions& options = {}) const;

  /// The same estimate under the per-offset total length correlation `rho`
  /// (entry |drow| * cols + |dcol| of the placement's floorplan) instead of
  /// the process's: the MC engine's realized field covariance
  /// (mc::FullChipMonteCarlo::choose_embedding).
  LeakageEstimate estimate(const placement::Placement& placement, const std::vector<double>& rho,
                           const ExactOptions& options = {}) const;

  /// Pairwise covariance of cell types (m, n) at length correlation rho_l
  /// (exposed for validation).
  double type_covariance(std::size_t type_m, std::size_t type_n, double rho_l) const;

 private:
  const charlib::CharacterizedLibrary* chars_;
  std::vector<charlib::EffectiveCellStats> effective_;  // per library cell
  std::vector<charlib::HermiteSeries> series_;          // per library cell
  std::size_t num_types_ = 0;

  /// Both estimate() overloads: `rho` when given, else
  /// offset_length_correlation().
  LeakageEstimate estimate_at(const placement::Placement& placement,
                              const std::vector<double>* rho, const ExactOptions& options) const;
  LeakageEstimate estimate_direct(const placement::Placement& placement,
                                  const std::vector<double>& rho, util::ThreadPool& pool,
                                  const util::RunControl* run) const;
  LeakageEstimate estimate_fft(const placement::Placement& placement,
                               const std::vector<double>& rho, util::ThreadPool& pool,
                               const util::RunControl* run) const;
};

/// Multiplicative correction to the chip mean leakage from random Vt
/// variation (section 2.1): E[exp(-dVt/(n vT))] = exp(sigma_vt^2/(2 (n vT)^2))
/// for dVt ~ N(0, sigma_vt^2) — the log-normal mean term of [Rao'04/Helms'06].
double vt_mean_factor(const process::VtVariation& vt, const device::TechnologyParams& tech);

}  // namespace rgleak::core
