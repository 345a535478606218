#pragma once
// Per-method cost model for the estimator ladder: predicted wall time and
// peak memory of each rung, known *before* running it.
//
// Each rung of the paper's accuracy-vs-cost ladder has a known complexity in
// the site count n: the exact pairwise sum is O(n^2) (direct) or
// O(K n log n) (FFT offset sums over K Hermite orders), eq. (17) is O(n), and
// the integral forms (eq. 20, eqs. 25/26) are O(1). Its arenas scale the same
// way: the direct exact path pins O(n) gate/offset tables, the FFT path pins
// one complex transform grid padded along the columns (a power of two
// >= 2 cols - 1) plus a few offset tables, eq. (17) and the integrals are
// effectively O(1), and the MC engine pins one field sampler + FFT workspace
// per worker.
//
// A CostModel carries, per rung, a time law (basis, ms coefficient) and a
// byte law (basis, byte coefficient). The budgeted estimators walk down the
// ladder when predict_ms says a rung would blow the remaining time budget;
// batch admission (service/admission.h) walks down — or tiles MC worker
// counts — when predict_bytes says it would blow the memory budget.
//
// Coefficients ship with built-in defaults and are calibrated from bench
// records (bench_scaling --exact-json, bench_full_chip_mc --mc-json): each
// record's wall_ms folds into the time law and its budget_peak_bytes /
// peak_rss_kb into the byte law, pinning the model to the host that recorded
// them.
//
// The structural arena formulas (exact_*_bytes, mc_worker_bytes) are what the
// estimators and the MC engine actually charge against the MemoryBudget; they
// use the same formulas as the arenas themselves, so charge and allocation
// agree by construction.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

namespace rgleak::core {

/// Rung names understood by the model (and reported in LeakageEstimate):
/// "exact_direct", "exact_fft", "linear", "integral_rect", "integral_polar",
/// and "mc" (bytes per worker thread — admission multiplies by the thread
/// count; MC has no time law, its cost is trials times trial time).
class CostModel {
 public:
  /// Built-in coefficients: commodity-core time magnitudes and hard-rounded
  /// byte counts; calibration pins them to the host.
  static CostModel defaults();

  /// defaults() calibrated by a bench JSON file: a "records" array of flat
  /// objects, each carrying "method", "sites" and "wall_ms", and optionally
  /// "budget_peak_bytes" (preferred when positive) or "peak_rss_kb" for
  /// memory. Recognizes the bench method names ("direct_serial" is ignored,
  /// "direct_parallel" calibrates exact_direct, "fft" calibrates exact_fft)
  /// as well as the rung names themselves. Throws IoError on an unreadable
  /// file, and ParseError naming the file and record when a record lacks a
  /// required field, carries a negative or non-finite number, or a site or
  /// byte count that is not a representable integer.
  static CostModel from_bench_json(const std::string& path);

  /// Folds one wall-clock measurement in: the rung's time coefficient becomes
  /// max(existing fit, wall_ms / basis(sites)) — conservative, so a budget
  /// decision never trusts the fastest outlier. Unknown names are ignored.
  void calibrate_ms(const std::string& method, std::size_t sites, double wall_ms);

  /// The byte-law analogue of calibrate_ms, same conservative-max rule.
  void calibrate_bytes(const std::string& method, std::size_t sites, std::uint64_t bytes);

  /// Predicted wall time of `method` at `sites` sites; +infinity for names
  /// without a time law (callers treat unknown as "does not fit").
  double predict_ms(const std::string& method, std::size_t sites) const;

  /// Predicted peak bytes of `method` at `sites` sites; UINT64_MAX for
  /// unknown names and for predictions past 2^64 (treated as "does not fit").
  std::uint64_t predict_bytes(const std::string& method, std::size_t sites) const;

  // ---- structural arena formulas (what the code actually charges) ----

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

  /// Per-worker arenas of the MC engine: the worker's field-sampler copy
  /// (eigenvalue table on the padded grid, spare-field cache, column and row
  /// FFT plans), FFT workspace (padded-grid scratch + kept-rows buffer), WID
  /// field buffer, and per-gate table ids. `padded_rows/cols`
  /// come from GridFieldSampler::padded_dim (or the sampler's accessors once
  /// built).
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
  struct Rung {
    std::optional<Law> ms;
    Law bytes;
  };

  /// The rung a calibration record names (bench or rung name), or nullptr.
  Rung* calibrated_rung(const std::string& method);

  std::map<std::string, Rung> rungs_;
};

}  // namespace rgleak::core
