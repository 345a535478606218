#pragma once
// Per-rung cost model for the estimator ladder: predicted wall time of each
// rung, known *before* running it, and the bytes each engine reserves.
//
// Each rung of the paper's accuracy-vs-cost ladder has a known complexity in
// the site count n: the exact pairwise sum is O(n^2) (direct) or
// O(K n log n) (FFT offset sums over K Hermite orders), eq. (17) is O(n), and
// the integral forms (eq. 20, eqs. 25/26) are O(1).
//
// A CostModel carries one time law (basis, ms coefficient) per rung. The
// ladder walk (core/leakage_estimator.h) steps down when predict_ms says a
// rung would blow what is left of the time budget. Coefficients ship with
// built-in defaults and are calibrated from bench records (bench_scaling
// --exact-json): each record's wall_ms folds into its rung's time law,
// pinning the model to the host that recorded it.
//
// Memory has no model to calibrate: the arena formulas below are what the
// exact estimators and the MC engine reserve against the MemoryBudget, and
// the same formulas price a rung or an MC run for memory admission, so the
// price is the charge by construction. eq. (17) and the integrals reserve
// nothing.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>

namespace rgleak::core {

/// Rung names understood by the model (and reported in LeakageEstimate):
/// "exact_direct", "exact_fft", "linear", "integral_rect", "integral_polar".
class CostModel {
 public:
  /// Built-in coefficients: commodity-core time magnitudes; calibration pins
  /// them to the host.
  static CostModel defaults();

  /// defaults() calibrated by a bench JSON file: a "records" array of flat
  /// objects, each carrying "method", "sites" and "wall_ms". Recognizes the
  /// bench method names ("direct_serial" is ignored, "direct_parallel"
  /// calibrates exact_direct, "fft" calibrates exact_fft) as well as the rung
  /// names themselves. Throws IoError on an unreadable file, and ParseError
  /// naming the file and record when a record lacks a required field, carries
  /// a negative or non-finite number, or a site count that is not a
  /// representable integer.
  static CostModel from_bench_json(const std::string& path);

  /// Folds one wall-clock measurement in: the rung's time coefficient becomes
  /// max(existing fit, wall_ms / basis(sites)) — conservative, so a budget
  /// decision never trusts the fastest outlier. Unknown names are ignored.
  void calibrate_ms(const std::string& method, std::size_t sites, double wall_ms);

  /// Predicted wall time of `method` at `sites` sites; +infinity for names
  /// without a time law (callers treat unknown as "does not fit").
  double predict_ms(const std::string& method, std::size_t sites) const;

  // ---- arena formulas (what the engines reserve) ----

  /// Arenas of ExactEstimator::estimate_direct: gate type/row/col tables,
  /// the per-offset rho grid, and the tile partials.
  static std::uint64_t exact_direct_bytes(std::size_t gates, std::size_t rows, std::size_t cols);

  /// Arenas of ExactEstimator::estimate_fft, which runs its series orders
  /// one packed pair at a time: the autocorrelation's transform grid (rows x
  /// next_pow2(2 cols - 1) complex cells) and the per-offset rho, rho-power
  /// and two order-weight tables. Independent of the number of cell types
  /// placed. Each transform task's four padded columns of scratch (32 KiB at
  /// 512 padded rows) are not charged.
  static std::uint64_t exact_fft_bytes(std::size_t rows, std::size_t cols);

  /// The MC engine's field embedding, built once and shared read-only by
  /// every worker: the sqrt-eigenvalue table on the padded grid, the realized
  /// covariance over the sites, and the column and row FFT plans.
  static std::uint64_t mc_embedding_bytes(std::size_t padded_rows, std::size_t padded_cols,
                                          std::size_t rows, std::size_t cols);

  /// Per-worker arenas of the MC engine: the worker's spare-field cache, FFT
  /// workspace (padded-grid scratch + kept-rows buffer), WID field buffer,
  /// and per-gate table ids. An MC run reserves the embedding once, this per
  /// worker, and its trial samples (mc::FullChipMonteCarlo::arena_bytes).
  static std::uint64_t mc_worker_bytes(std::size_t padded_rows, std::size_t padded_cols,
                                       std::size_t rows, std::size_t cols, std::size_t gates);

 private:
  /// One scaling law: cost ≈ coeff * basis(sites), with `coeff` the shipped
  /// default until a measurement arrives and the largest measured
  /// coefficient afterwards.
  struct Law {
    enum class Basis { kConstant, kLinear, kNLogN, kQuadratic };
    Basis basis = Basis::kConstant;
    double default_coeff = 0.0;
    double calibrated_coeff = 0.0;  ///< 0 until calibrated

    double basis_value(std::size_t sites) const;
    double predict(std::size_t sites) const;
    void calibrate(std::size_t sites, double measured);
  };

  std::map<std::string, Law> laws_;
};

}  // namespace rgleak::core
