#pragma once
// The execution boundary of the batch layer.
//
// BatchRunner owns orchestration (queue, retries, watchdogs, journal);
// Executors own domain work. Keeping the boundary a one-method interface
// lets tests and benchmarks drive the full orchestration machinery with
// synthetic jobs (a lambda that sleeps, throws, or returns a constant), and
// keeps the production adapters (service/job_runner.h) free of any
// scheduling concerns.

#include "service/job.h"
#include "util/run_control.h"

namespace rgleak::service {

/// What a successful job execution produced.
struct JobOutput {
  double mean_na = 0.0;
  double sigma_na = 0.0;
  /// Estimator rung / engine that answered ("exact_fft", "linear", "mc", ...).
  std::string method;
  /// Non-empty when a budget moved the job off what it requested: the
  /// estimator ladder's trail of memory and time notes, "; "-joined (e.g.
  /// "mem: exact_fft->exact_direct; exact_direct predicted 0.2 ms > budget
  /// 0.0 ms"), or an MC worker halving ("mem: mc threads 8->2"). Journaled
  /// with the record. A retry's lower rung is not noted here: the record's
  /// `attempts` counts retries.
  std::string degradation;
};

class Executor {
 public:
  virtual ~Executor() = default;

  /// Runs one job attempt. `watchdog` carries the per-job deadline and any
  /// forwarded batch-level stop; implementations thread it into every kernel
  /// they call so a wedged job cancels within one chunk. `degrade` counts
  /// prior retryable failures of this job — implementations that own an
  /// accuracy ladder walk one rung down per degradation step (see
  /// job_runner.h). Failures are reported by throwing (taxonomy errors
  /// preferred; anything else is classified as transient).
  virtual JobOutput execute(const JobSpec& job, const util::RunControl* watchdog,
                            int degrade) = 0;
};

}  // namespace rgleak::service
