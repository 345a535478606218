#pragma once
// Memory admission control for batch jobs.
//
// Before a job runs, the JobRunner preflights its peak-memory prediction
// (core::CostModel::predict_bytes) against the configured budget and, when it
// does not fit, walks the same accuracy ladder the budgeted estimators walk
// for time budgets:
//
//   exact_fft -> exact_direct -> linear -> integral_polar     (estimates)
//   mc @ N threads -> mc @ N/2 -> ... -> mc @ 1               (Monte Carlo)
//
// The first rung that fits is admitted and the walk is recorded in the job's
// `degradation` string (journaled, so operators can see what the budget cost
// them). A job that does not fit even at the floor is rejected with a
// ResourceError — a typed, journaled record, not an OOM kill.
//
// Admission is *predictive*; the tracked MemoryBudget reservations inside the
// engines are the backstop for mispredictions. Both come from
// core/cost_model.h, so they rarely disagree.

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/cost_model.h"

namespace rgleak::service {

/// Per-batch resource policy: the memory budget jobs are admitted against
/// and the cost model that predicts their footprints.
struct ResourceGovernor {
  /// Bytes one job may need at peak; 0 = unlimited (admission is a no-op).
  std::uint64_t mem_budget_bytes = 0;
  core::CostModel costs = core::CostModel::defaults();
};

/// What admission decided for one job.
struct Admission {
  /// Admitted estimator rung ("exact_fft", "exact_direct", "linear",
  /// "integral_polar") — for MC, always "mc".
  std::string method;
  /// Admitted MC worker count (admit_mc only).
  std::size_t threads = 0;
  /// Empty when the job runs as requested; otherwise a human-readable walk,
  /// e.g. "mem: exact_fft->linear" or "mem: mc threads 8->2". Journaled.
  std::string degradation;
};

/// Admits an estimate at `sites` sites requesting `method` (one of the rung
/// names above), walking down the ladder from the requested rung until the
/// prediction fits `gov.mem_budget_bytes`. Throws ResourceError when even
/// the constant-memory floor does not fit.
Admission admit_estimate(const ResourceGovernor& gov, std::size_t sites,
                         const std::string& method);

/// Admits an MC run at `sites` sites with `threads` requested workers,
/// halving the worker count until the per-worker prediction times the count
/// fits. Throws ResourceError when one worker does not fit.
Admission admit_mc(const ResourceGovernor& gov, std::size_t sites, std::size_t threads);

}  // namespace rgleak::service
