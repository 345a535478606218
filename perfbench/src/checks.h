#pragma once
// Correctness checks of the workloads' outputs. Each returns whether the
// answer is acceptable and, when it is not, why. They are pure functions of
// the answers so the self-test can feed them deliberately wrong ones.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/estimate.h"
#include "service/executor.h"
#include "service/job.h"

namespace perfbench {

/// Mean and unbiased standard deviation of `samples`.
std::pair<double, double> sample_moments(const std::vector<double>& samples);

/// Kurtosis (not excess) of `samples`.
double sample_kurtosis(const std::vector<double>& samples);

/// Monte-Carlo result against the exact estimate of the same placed design.
/// The tolerance is 6 standard errors under the exact answer: of the mean,
/// exact sigma / sqrt(n), and of the standard deviation, exact sigma *
/// sqrt((kurtosis - 1) / 4n). The total is right-skewed, so `kurtosis` comes
/// from all of the workload's samples; a 500-trial run estimates its own
/// poorly, and a low estimate shrinks the tolerance. The reported mean and
/// sigma must also be the moments of the samples themselves.
struct McVerdict {
  bool ok = false;
  double mean_err_se = 0.0;   ///< |MC - exact| mean, in standard errors
  double sigma_err_se = 0.0;  ///< |MC - exact| sigma, in standard errors
  std::string why;
};
McVerdict check_mc(const std::vector<double>& samples, double mc_mean, double mc_sigma,
                   double exact_mean, double exact_sigma, double kurtosis);

/// Band for the RG-vs-exact sigma error of the sign-off design `design`
/// (fraction). EXPERIMENTS.md records Table 1 as percent-level agreement that
/// shrinks with circuit size; each band is scaled from the design's worst
/// error over seeds 1-20 at both corners (see checks.cpp), so a real loss of
/// RG accuracy on the large designs fails. Throws for an unknown design.
double signoff_sigma_band(const std::string& design);

/// Sign-off: RG (eq. 17) against the exact FFT sum on one design. Sigma must
/// agree within `sigma_band`; the means must be equal to rounding.
bool check_signoff(const rgleak::core::LeakageEstimate& rg,
                   const rgleak::core::LeakageEstimate& exact, double sigma_band,
                   std::string* why);

/// plan-batch, one job: the executor's answer must be finite with no
/// degradation, its terminal record `succeeded`, and the journal re-read from
/// disk must hold the bit-identical mean and sigma.
bool check_job(const std::string& id, const rgleak::service::JobOutput* seen,
               const std::map<std::string, rgleak::service::JobRecord>& journal,
               std::string* why);

}  // namespace perfbench
