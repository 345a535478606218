#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/format.h"

namespace perfbench {

namespace {

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

std::string num(double v) { return rgleak::util::format_double(v, 6); }

}  // namespace

std::pair<double, double> sample_moments(const std::vector<double>& samples) {
  const auto n = static_cast<double>(samples.size());
  double mean = 0.0;
  for (double x : samples) mean += x;
  mean /= n;
  double m2 = 0.0;
  for (double x : samples) m2 += (x - mean) * (x - mean);
  return {mean, std::sqrt(m2 / (n - 1.0))};
}

double sample_kurtosis(const std::vector<double>& samples) {
  const auto n = static_cast<double>(samples.size());
  const auto [mean, sd] = sample_moments(samples);
  double m4 = 0.0;
  for (double x : samples) m4 += std::pow(x - mean, 4);
  const double var_pop = sd * sd * (n - 1.0) / n;
  return (m4 / n) / (var_pop * var_pop);
}

McVerdict check_mc(const std::vector<double>& samples, double mc_mean, double mc_sigma,
                   double exact_mean, double exact_sigma, double kurtosis) {
  // The sample sigma of a right-skewed total has a long upper tail. Resampling
  // 400 000 runs of 500 from 20 500 mc-validate trials (kurtosis 8.6-9.2), a
  // run's sigma lay beyond 5 SE in 1-3e-5 of them and beyond 6 SE in at most
  // 2.5e-6; its mean beyond 5 SE in at most 2.5e-6.
  constexpr double z = 6.0;
  McVerdict v;
  const auto n = static_cast<double>(samples.size());
  if (samples.size() < 2) {
    v.why = "fewer than two samples";
    return v;
  }
  const auto [mean, sd] = sample_moments(samples);
  const double se_mean = exact_sigma / std::sqrt(n);
  const double se_sd = exact_sigma * std::sqrt(std::max(kurtosis - 1.0, 0.0) / (4.0 * n));

  if (!(std::abs(mc_mean - mean) <= 1e-9 * std::abs(mean)) ||
      !(std::abs(mc_sigma - sd) <= 1e-9 * sd)) {
    v.why = "reported moments (" + num(mc_mean) + ", " + num(mc_sigma) +
            ") are not those of the samples (" + num(mean) + ", " + num(sd) + ")";
    return v;
  }
  v.mean_err_se = std::abs(mc_mean - exact_mean) / se_mean;
  v.sigma_err_se = std::abs(mc_sigma - exact_sigma) / se_sd;
  v.ok = v.mean_err_se <= z && v.sigma_err_se <= z;
  if (!v.ok)
    v.why = "MC (" + num(mc_mean) + ", " + num(mc_sigma) + ") vs exact (" + num(exact_mean) +
            ", " + num(exact_sigma) + "): mean off by " + num(v.mean_err_se) +
            " SE, sigma off by " + num(v.sigma_err_se) + " SE (limit " + num(z) + ")";
  return v;
}

double signoff_sigma_band(const std::string& design) {
  // Percent: the smallest of 0.05, 0.1, 0.2, 0.5, 1 and 2 % at least three
  // times the design's worst error over seeds 1-20 at both corners. On the
  // larger designs the error comes from the seeded arrangement and nearly
  // vanishes on some seeds. On c432 and c499 it is the O(n) gate-choice
  // diagonal difference, a bias that moves little with the seed (1.08-1.53 %
  // and 0.40-0.62 %): they get 2 % (the percent-level band of EXPERIMENTS.md)
  // and 1 %.
  static const std::map<std::string, double> kBandPct = {
      {"c432", 2.0},       {"c499", 1.0},       {"c880", 0.5},       {"c1355", 0.2},
      {"c1908", 1.0},      {"c2670", 0.2},      {"c5315", 0.2},      {"c6288", 0.1},
      {"c7552", 0.2},      {"c5315@128", 0.1},  {"c7552@128", 0.2},  {"c5315@256", 0.05},
      {"c7552@256", 0.05},
  };
  const auto it = kBandPct.find(design);
  if (it == kBandPct.end()) throw std::invalid_argument("no sign-off band for design " + design);
  return it->second / 100.0;
}

bool check_signoff(const rgleak::core::LeakageEstimate& rg,
                   const rgleak::core::LeakageEstimate& exact, double sigma_band,
                   std::string* why) {
  const double sigma_err = std::abs(rg.sigma_na - exact.sigma_na) / exact.sigma_na;
  const double mean_err = std::abs(rg.mean_na - exact.mean_na) / exact.mean_na;
  // Exact-match histograms make the two means the same sum in another order.
  constexpr double kRounding = 1e-9;
  if (sigma_err <= sigma_band && mean_err <= kRounding) return true;
  *why = "RG (" + num(rg.mean_na) + ", " + num(rg.sigma_na) + ") vs exact (" +
         num(exact.mean_na) + ", " + num(exact.sigma_na) + "): sigma error " +
         num(100.0 * sigma_err) + " % (band " + num(100.0 * sigma_band) + " %), mean error " +
         num(mean_err);
  return false;
}

bool check_job(const std::string& id, const rgleak::service::JobOutput* seen,
               const std::map<std::string, rgleak::service::JobRecord>& journal,
               std::string* why) {
  using rgleak::service::JobStatus;
  if (seen == nullptr) {
    *why = "job " + id + " never returned from the executor";
    return false;
  }
  if (!std::isfinite(seen->mean_na) || !std::isfinite(seen->sigma_na) || seen->sigma_na <= 0.0) {
    *why = "job " + id + " answered (" + num(seen->mean_na) + ", " + num(seen->sigma_na) + ")";
    return false;
  }
  if (!seen->degradation.empty()) {
    *why = "job " + id + " degraded: " + seen->degradation;
    return false;
  }
  const auto it = journal.find(id);
  if (it == journal.end() || it->second.status != JobStatus::kSucceeded) {
    *why = "job " + id + " has no succeeded journal record";
    return false;
  }
  if (!same_bits(it->second.mean_na, seen->mean_na) ||
      !same_bits(it->second.sigma_na, seen->sigma_na)) {
    *why = "job " + id + " journal holds (" + rgleak::util::format_double(it->second.mean_na) +
           ", " + rgleak::util::format_double(it->second.sigma_na) + "), executor returned (" +
           rgleak::util::format_double(seen->mean_na) + ", " +
           rgleak::util::format_double(seen->sigma_na) + ")";
    return false;
  }
  return true;
}

}  // namespace perfbench
