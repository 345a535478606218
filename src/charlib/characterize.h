#pragma once
// Cell pre-characterization (section 2.1 of the paper).
//
// Two characterization routes are provided, mirroring the paper:
//  * Monte-Carlo (section 2.1.1): sample L ~ N(mu, sigma_total) with fully
//    correlated within-cell lengths and accumulate per-state mean/sigma.
//  * Analytical (section 2.1.2): sample the leakage curve at a handful of
//    lengths, fit ln(I) = ln(a) + b L + c L^2, and compute the *exact* moments
//    of a*exp(bL + cL^2) through the non-central chi-square MGF.
//
// The result is a CharacterizedLibrary: per cell, per input state, the leakage
// mean/sigma (and the fitted (a,b,c) when available), plus helpers to mix
// states under signal probabilities (section 2.1.4).

#include <optional>
#include <vector>

#include "cells/library.h"
#include "charlib/hermite_series.h"
#include "charlib/leakage_table.h"
#include "math/mgf.h"
#include "math/rng.h"
#include "process/variation.h"
#include "util/run_control.h"

namespace rgleak::charlib {

/// Characterized statistics of one (cell, input state).
struct StateChar {
  double mean_na = 0.0;
  double sigma_na = 0.0;
  /// Fitted functional form; present when the analytic route produced it.
  std::optional<math::LogQuadraticModel> model;
};

/// Characterized statistics of one cell: one entry per input state.
struct CellChar {
  std::vector<StateChar> states;
};

/// Effective (state-mixed) statistics of one cell under given state
/// probabilities: mean = sum_s P(s) mu_s, second moment mixes accordingly.
struct EffectiveCellStats {
  double mean_na = 0.0;
  double sigma_na = 0.0;
};

/// Options for the Monte-Carlo characterizer.
struct McCharOptions {
  std::size_t samples = 20000;
  std::size_t table_points = 129;
  double table_span_sigma = 8.0;  ///< table covers mu ± span*sigma
  std::uint64_t seed = 12345;
  /// Cooperative stop / deadline, polled once per (cell, state); a stop
  /// throws DeadlineExceeded from the characterizer.
  const util::RunControl* run = nullptr;
};

/// Options for the analytic characterizer.
struct AnalyticCharOptions {
  std::size_t fit_points = 9;    ///< leakage samples for the regression
  double fit_span_sigma = 3.0;   ///< fit window mu ± span*sigma
  /// Cooperative stop / deadline, polled once per (cell, state).
  const util::RunControl* run = nullptr;
};

/// Library + process + per-cell characterization data, and the Hermite
/// series of every fitted (cell, state). Value type.
class CharacterizedLibrary {
 public:
  CharacterizedLibrary(const cells::StdCellLibrary* library, process::ProcessVariation process,
                       std::vector<CellChar> cells);

  const cells::StdCellLibrary& library() const { return *library_; }
  const process::ProcessVariation& process() const { return process_; }
  std::size_t size() const { return cells_.size(); }
  const CellChar& cell(std::size_t index) const;

  /// State-mixed statistics of cell `index` under the given per-state
  /// probabilities (must sum to ~1 and match the state count).
  EffectiveCellStats effective(std::size_t index, const std::vector<double>& state_probs) const;

  /// Per-state probabilities for cell `index` when every input is
  /// independently 1 with probability `signal_probability`.
  std::vector<double> state_probabilities(std::size_t index, double signal_probability) const;

  /// True when every (cell, state) carries a fitted (a,b,c) model.
  bool has_models() const;

  /// The Hermite series of the fitted model of cell `index`, state `state`
  /// at this library's L = mu +/- sigma_total (charlib/hermite_series.h).
  /// The library builds it once, at construction, for every state that
  /// carries a model; the estimators only mix these. Requires the model.
  const HermiteSeries& state_series(std::size_t index, std::size_t state) const;

  /// This library under the same process with WID length sigma
  /// `sigma_wid_nm`: a state with a fitted model takes the model's exact
  /// moments at the new total length sigma; one without keeps its mean and
  /// scales its sigma by the ratio of total length sigmas (first order in L).
  /// The fits themselves are kept.
  CharacterizedLibrary with_wid_sigma(double sigma_wid_nm) const;

 private:
  const cells::StdCellLibrary* library_;
  process::ProcessVariation process_;
  std::vector<CellChar> cells_;
  std::vector<std::vector<HermiteSeries>> series_;  // per (cell, state); empty without a model
};

/// Monte-Carlo characterization of every cell and input state.
CharacterizedLibrary characterize_monte_carlo(const cells::StdCellLibrary& library,
                                              const process::ProcessVariation& process,
                                              const McCharOptions& options = {});

/// Analytical characterization (fit + exact moments) of every cell and state.
CharacterizedLibrary characterize_analytic(const cells::StdCellLibrary& library,
                                           const process::ProcessVariation& process,
                                           const AnalyticCharOptions& options = {});

/// Fits ln(leakage) of one (cell, state) to the log-quadratic form; exposed
/// for tests and for the Fig.-2 experiment.
math::LogQuadraticModel fit_log_quadratic(const cells::Cell& cell, std::uint32_t state,
                                          const device::TechnologyParams& tech, double mu_l_nm,
                                          double sigma_l_nm,
                                          const AnalyticCharOptions& options = {});

}  // namespace rgleak::charlib
