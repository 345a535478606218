#pragma once
// Top-level facade: the block diagram of Fig. 1. Given the process, the
// characterized library, and the high-level design characteristics —
// (expected or extracted) usage histogram, gate count, and layout dimensions
// — produce the full-chip leakage mean and sigma with the configured
// estimator.

#include <cstddef>
#include <optional>

#include "core/cost_model.h"
#include "core/estimate.h"
#include "core/estimators.h"
#include "core/random_gate.h"
#include "core/signal_probability.h"
#include "util/run_control.h"

namespace rgleak::core {

/// The four high-level characteristics of section 2.2 (the library itself is
/// carried by the CharacterizedLibrary).
struct DesignCharacteristics {
  netlist::UsageHistogram usage;
  std::size_t gate_count = 0;
  double width_nm = 0.0;
  double height_nm = 0.0;
};

/// Which estimator evaluates the RG-array variance.
enum class EstimationMethod {
  kLinear,        ///< eq. (17), O(n)
  kIntegralRect,  ///< eq. (20), O(1)
  kIntegralPolar, ///< eqs (25)/(26), O(1)
  kAuto,          ///< linear below 10k gates, polar above (paper's suggestion)
};

struct EstimatorConfig {
  /// Fixed signal probability; ignored when maximize_signal_probability.
  double signal_probability = 0.5;
  /// Use the conservative max-mean setting of section 2.1.4.
  bool maximize_signal_probability = true;
  CorrelationMode correlation_mode = CorrelationMode::kAnalytic;
  EstimationMethod method = EstimationMethod::kAuto;
  /// Apply the random-Vt multiplicative mean correction.
  bool apply_vt_mean_factor = true;
  /// Wall-clock budget for one estimate() call, seconds; 0 = unlimited. With
  /// a budget set, the estimator walks the accuracy ladder downward
  /// (linear, eq. 17 → integral, eqs. 20/25) whenever `cost_model` predicts
  /// the requested rung would blow the budget — and a mispredicted rung is
  /// cancelled by the armed deadline and answered by the next one. The
  /// result records the rung that answered and why it degraded.
  double time_budget_s = 0.0;
  /// Cost model behind the budget decisions; calibrate from a bench record
  /// via CostModel::from_bench_json to pin it to the host.
  CostModel cost_model = CostModel::defaults();
  /// External stop source (SIGINT handler, batch watchdog): polled by the
  /// linear rung, and linked as the parent of the budgeted path's internal
  /// deadline, so an outer cancellation stops an estimate mid-rung.
  const util::RunControl* run = nullptr;
};

/// Builds the k x m RG floorplan matching a design's gate count and layout
/// dimensions (rows/cols chosen so sites tile W x H and rows*cols >= n, as
/// close to n as possible).
placement::Floorplan floorplan_for_design(const DesignCharacteristics& design);

class LeakageEstimator {
 public:
  LeakageEstimator(const charlib::CharacterizedLibrary& chars, EstimatorConfig config = {});

  /// Full-chip mean/sigma for a candidate design (early or late mode).
  LeakageEstimate estimate(const DesignCharacteristics& design) const;

  /// The RG constructed for a design (exposed for validation/benchmarks).
  RandomGate make_random_gate(const netlist::UsageHistogram& usage) const;

  /// Signal probability that would be used for this usage distribution.
  double resolve_signal_probability(const netlist::UsageHistogram& usage) const;

  const EstimatorConfig& config() const { return config_; }

 private:
  const charlib::CharacterizedLibrary* chars_;
  EstimatorConfig config_;

  LeakageEstimate estimate_budgeted(const placement::Floorplan& fp, const RandomGate& rg,
                                    EstimationMethod requested) const;
};

/// Budgeted estimate of a *placed* design: the full degradation ladder of the
/// paper. Runs the exact pairwise analysis (eq. 14/15, FFT or direct per
/// `opts`) when the cost model predicts it fits `budget_s`, else falls back
/// to the distance histogram (eq. 17), else to the integral forms
/// (eqs. 20/25). A rung that overruns its prediction is cancelled by the
/// armed deadline and the next rung answers; the last rung (O(1) integral)
/// always answers. The result names the rung and the degradation reason.
/// `parent`, when given, is linked as the parent of the ladder's internal
/// deadline control, so an external stop (SIGINT, a batch watchdog) cancels
/// the running rung; the ladder still answers with the O(1) integral.
LeakageEstimate estimate_placed_budgeted(const ExactEstimator& exact, const RandomGate& rg,
                                         const placement::Placement& placement, double budget_s,
                                         const CostModel& costs, ExactOptions opts = {},
                                         const util::RunControl* parent = nullptr);

}  // namespace rgleak::core
