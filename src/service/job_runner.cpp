#include "service/job_runner.h"

#include <cmath>
#include <new>

#include "charlib/io.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
#include "core/cost_model.h"
#include "core/random_gate.h"
#include "mc/full_chip_mc.h"
#include "netlist/io.h"
#include "placement/placement.h"
#include "service/params.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace rgleak::service {

namespace {

// One scope per job phase: a trace span (parented to the batch attempt span
// via the thread-local stack, including across the sandbox fork) plus a
// latency histogram observation. Instrument references resolve once.
util::metrics::Histogram& phase_hist(const char* which) {
  auto& reg = util::metrics::Registry::instance();
  static util::metrics::Histogram& parse = reg.histogram("job.phase.parse_ms");
  static util::metrics::Histogram& characterize = reg.histogram("job.phase.characterize_ms");
  static util::metrics::Histogram& estimate = reg.histogram("job.phase.estimate_ms");
  static util::metrics::Histogram& write = reg.histogram("job.phase.write_ms");
  switch (which[0]) {
    case 'p': return parse;
    case 'c': return characterize;
    case 'w': return write;
    default: return estimate;
  }
}

class PhaseScope {
 public:
  PhaseScope(const char* span_name, const char* which, const JobSpec& job)
      : span_(span_name, job.id), timer_(phase_hist(which)) {}

 private:
  util::trace::Span span_;
  util::metrics::ScopedTimerMs timer_;
};

JobOutput output_of(const core::LeakageEstimate& e) {
  JobOutput out;
  out.mean_na = e.mean_na;
  out.sigma_na = e.sigma_na;
  out.method = e.method.empty() ? "unknown" : e.method;
  if (!std::isfinite(out.mean_na) || !std::isfinite(out.sigma_na))
    throw NumericalError("estimate produced a non-finite result (mean " +
                         std::to_string(out.mean_na) + ", sigma " + std::to_string(out.sigma_na) +
                         ")");
  return out;
}

}  // namespace

JobOutput JobRunner::execute(const JobSpec& job, const util::RunControl* watchdog, int degrade) {
  RGLEAK_FAILPOINT("service.job.execute");
  if (watchdog != nullptr) watchdog->poll("service.job.execute");
  try {
    if (job.kind == "estimate") return run_estimate(job, watchdog, degrade);
    if (job.kind == "netlist") return run_netlist(job, watchdog, degrade);
    if (job.kind == "mc") return run_mc(job, watchdog);
    if (job.kind == "characterize") return run_characterize(job, watchdog);
  } catch (const std::bad_alloc&) {
    // Engines translate their own arena failures; this is the last line of
    // defense for allocations outside any charged arena (library loads,
    // caches). Keep it typed so the batch classifies it retryable.
    throw ResourceError("job '" + job.id + "' (" + job.kind +
                        "): allocation failed (std::bad_alloc) outside a charged arena");
  }
  throw ConfigError("job '" + job.id + "': unknown kind '" + job.kind +
                    "' (expected estimate, netlist, mc, or characterize)");
}

const charlib::CharacterizedLibrary& JobRunner::chars_for(const std::string& path) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = chars_cache_.find(path);
  if (it != chars_cache_.end()) return it->second;
  return chars_cache_.emplace(path, charlib::load_characterization(*library_, path))
      .first->second;
}

std::pair<const charlib::CharacterizedLibrary&, const netlist::Netlist&> JobRunner::inputs_for(
    const JobSpec& job, const Params& params) {
  const std::string lib = params.text("lib");
  const std::string path = params.text("netlist");
  const PhaseScope phase("phase.parse", "parse", job);
  const charlib::CharacterizedLibrary& chars = chars_for(lib);
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = netlist_cache_.find(path);
  if (it == netlist_cache_.end())
    it = netlist_cache_.emplace(path, netlist::load_netlist(*library_, path)).first;
  return {chars, it->second};
}

JobOutput JobRunner::run_estimate(const JobSpec& job, const util::RunControl* watchdog,
                                  int degrade) {
  const Params params(job);
  const core::DesignCharacteristics d = design_characteristics(params, *library_);
  core::EstimatorConfig cfg = estimator_config(params);
  const charlib::CharacterizedLibrary& chars = [&]() -> const charlib::CharacterizedLibrary& {
    const PhaseScope phase("phase.parse", "parse", job);
    return chars_for(params.text("lib"));
  }();
  cfg.run = watchdog;
  cfg.correlation_mode = correlation_mode_for(chars);
  // Retry degradation: after a retryable failure, answer from the O(1)
  // integral rung instead of re-running the rung that failed.
  if (degrade >= 1) cfg.method = core::EstimationMethod::kIntegralPolar;

  std::string degradation;
  if (governor_ != nullptr) {
    // Admission sees the most expensive rung this job could occupy: auto
    // resolves to at most the linear rung on this path.
    std::string requested = "linear";
    if (cfg.method == core::EstimationMethod::kIntegralRect) requested = "integral_rect";
    if (cfg.method == core::EstimationMethod::kIntegralPolar) requested = "integral_polar";
    const placement::Floorplan fp = placement::Floorplan::for_gate_count(d.gate_count);
    const Admission adm = admit_estimate(*governor_, fp.rows * fp.cols, requested);
    if (!adm.degradation.empty()) {
      if (adm.method == "integral_polar") cfg.method = core::EstimationMethod::kIntegralPolar;
      degradation = adm.degradation;
    }
  }

  const PhaseScope phase("phase.estimate", "estimate", job);
  const core::LeakageEstimator estimator(chars, cfg);
  JobOutput out = output_of(estimator.estimate(d));
  out.degradation = degradation;
  return out;
}

JobOutput JobRunner::run_netlist(const JobSpec& job, const util::RunControl* watchdog,
                                 int degrade) {
  const Params params(job);
  // A batch job shares the host with the batch's other workers, so its exact
  // analysis runs on one thread unless it asks for more; a CLI run owns the
  // host and defaults to all cores.
  NetlistRequest req = netlist_request(params, /*default_threads=*/1);
  const auto [chars, nl] = inputs_for(job, params);
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const netlist::UsageHistogram usage = netlist::extract_usage(nl);
  const core::CorrelationMode mode = correlation_mode_for(chars);
  const core::RandomGate rg(chars, usage, req.signal_probability, mode);

  // The cost ladder: retry degradation picks the requested rung (one down per
  // retryable failure), then memory admission may walk further down still.
  // Auto is admitted at the FFT rung — the most memory it could occupy.
  std::string requested;
  if (degrade >= 2) requested = "integral_polar";
  else if (degrade >= 1 || (!req.exact && req.time_budget_s <= 0.0)) requested = "linear";
  else requested = req.exact_options.method == core::ExactMethod::kDirect ? "exact_direct"
                                                                           : "exact_fft";

  std::string admitted = requested;
  std::string degradation;
  if (governor_ != nullptr) {
    const Admission adm =
        admit_estimate(*governor_, static_cast<std::size_t>(fp.rows) * fp.cols, requested);
    admitted = adm.method;
    degradation = adm.degradation;
  }

  const PhaseScope phase("phase.estimate", "estimate", job);
  JobOutput out;
  if (admitted == "integral_polar") {
    out = output_of(core::estimate_integral_polar(rg, fp));
  } else if (admitted == "linear") {
    out = output_of(core::estimate_linear(rg, fp, watchdog));
  } else {
    core::ExactOptions& opts = req.exact_options;
    if (admitted == "exact_direct" && requested == "exact_fft")
      opts.method = core::ExactMethod::kDirect;
    const placement::Placement pl(&nl, fp);
    const core::ExactEstimator exact(chars, req.signal_probability, mode);
    if (req.time_budget_s > 0.0) {
      const core::CostModel costs = core::CostModel::defaults();
      out = output_of(core::estimate_placed_budgeted(exact, rg, pl, req.time_budget_s, costs,
                                                     opts, watchdog));
    } else {
      opts.run = watchdog;
      out = output_of(exact.estimate(pl, opts));
    }
  }
  out.degradation = degradation;
  return out;
}

JobOutput JobRunner::run_mc(const JobSpec& job, const util::RunControl* watchdog) {
  const Params params(job);
  mc::FullChipMcOptions opts = mc_options(params);
  opts.run = watchdog;
  const auto [chars, nl] = inputs_for(job, params);
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const placement::Placement pl(&nl, fp);

  std::string degradation;
  if (governor_ != nullptr) {
    const Admission adm = admit_mc(
        *governor_, static_cast<std::size_t>(fp.rows) * fp.cols, opts.threads);
    opts.threads = adm.threads;
    degradation = adm.degradation;
  }

  const PhaseScope phase("phase.estimate", "estimate", job);
  mc::FullChipMonteCarlo engine(pl, chars, opts);
  const mc::FullChipMcResult r = engine.run();
  JobOutput out;
  out.mean_na = r.mean_na;
  out.sigma_na = r.sigma_na;
  out.method = "mc";
  out.degradation = degradation;
  if (!std::isfinite(out.mean_na) || !std::isfinite(out.sigma_na))
    throw NumericalError("mc produced a non-finite result");
  return out;
}

JobOutput JobRunner::run_characterize(const JobSpec& job, const util::RunControl* watchdog) {
  const Params params(job);
  const std::string out_path = params.text("out");
  const CharacterizeRequest req = characterize_request(params);
  const charlib::CharacterizedLibrary chars = [&] {
    const PhaseScope phase("phase.characterize", "characterize", job);
    return req.run(*library_, watchdog);
  }();
  {
    const PhaseScope phase("phase.write", "write", job);
    charlib::save_characterization(chars, out_path);
  }

  JobOutput out;
  out.method = std::string("characterize_") + req.mode;
  return out;
}

}  // namespace rgleak::service
