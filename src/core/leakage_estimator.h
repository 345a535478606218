#pragma once
// Top-level facade: the block diagram of Fig. 1. Given the process, the
// characterized library, and the high-level design characteristics —
// (expected or extracted) usage histogram, gate count, and layout dimensions
// — produce the full-chip leakage mean and sigma with the configured
// estimator.

#include <cstddef>
#include <cstdint>

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
  /// a budget set, estimate() walks the ladder (walk_ladder) from the
  /// requested rung: linear (eq. 17) steps down to the integral (eqs. 20/25)
  /// when `cost_model` predicts it would blow the budget, or when the armed
  /// deadline cancels it. The result records the rung that answered and why
  /// it degraded.
  double time_budget_s = 0.0;
  /// Cost model behind the budget decisions; calibrate from a bench record
  /// via CostModel::from_bench_json to pin it to the host.
  CostModel cost_model = CostModel::defaults();
  /// External stop source (SIGINT handler, batch watchdog): polled by the
  /// linear rung, and linked as the parent of the ladder's internal
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
};

/// A rung of the paper's accuracy-vs-cost ladder, most accurate first: the
/// exact pairwise sum (eqs. 14/15) by FFT offset sums or directly, the
/// distance histogram (eq. 17), and the O(1) integral floor (eq. 20, or
/// eqs. 25/26).
enum class Rung { kExactFft, kExactDirect, kLinear, kIntegralRect, kIntegralPolar };

/// The rung's name in LeakageEstimate::method and in the CostModel.
const char* rung_name(Rung rung);

/// The exact rung `method` runs on `fp` (resolve_exact_method).
Rung exact_rung(ExactMethod method, const placement::Floorplan& fp);

/// Bytes `rung` reserves against the process MemoryBudget for `gates` gates
/// placed on `fp`: the exact rungs' arenas (CostModel::exact_fft_bytes,
/// exact_direct_bytes). eq. (17) and the integrals reserve nothing.
std::uint64_t rung_bytes(Rung rung, std::size_t gates, const placement::Floorplan& fp);

/// One design on the ladder, and what a walk down it may spend.
struct Ladder {
  const RandomGate& rg;
  const placement::Floorplan& fp;
  /// The exact rungs' estimator and placed design, and their threads or pool
  /// (the walk sets method and run control). Null for an unplaced design,
  /// whose walk starts at linear or below.
  const ExactEstimator* exact = nullptr;
  const placement::Placement* placement = nullptr;
  ExactOptions exact_options = {};
  /// Wall-clock seconds for the whole walk; 0 = unlimited.
  double time_budget_s = 0.0;
  /// Bytes one rung may reserve (rung_bytes); 0 = unlimited.
  std::uint64_t mem_budget_bytes = 0;
  /// Time laws behind the time-budget decisions; null = CostModel::defaults().
  const CostModel* costs = nullptr;
  /// External stop source (SIGINT, a batch watchdog): polled by the running
  /// rung and linked as the parent of the walk's deadline, so an outer
  /// cancellation propagates instead of degrading.
  const util::RunControl* run = nullptr;
};

/// The one walk down the ladder, from `requested` through exact_fft ->
/// exact_direct -> linear -> the integral floor (rect when requested, else
/// polar). A rung is skipped when its arena is over the memory budget (noted
/// "mem: <requested>-><rung>" at the first rung that fits) or its predicted
/// time is over what is left of the time budget; a rung that overruns its
/// prediction is cancelled at the armed deadline. The next rung answers, and
/// the integral floor always answers, even past the deadline. The result
/// names the rung that answered; its degradation is the "; "-joined trail of
/// skips and cancellations. With neither budget set the requested rung runs
/// directly.
LeakageEstimate walk_ladder(const Ladder& ladder, Rung requested);

/// Budgeted estimate of a *placed* design: walk_ladder from the exact rung
/// `opts.method` names, under `budget_s` seconds and the `costs` time laws.
/// `parent`, when given, is the external stop source (Ladder::run).
LeakageEstimate estimate_placed_budgeted(const ExactEstimator& exact, const RandomGate& rg,
                                         const placement::Placement& placement, double budget_s,
                                         const CostModel& costs, ExactOptions opts = {},
                                         const util::RunControl* parent = nullptr);

}  // namespace rgleak::core
