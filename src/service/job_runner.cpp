#include "service/job_runner.h"

#include <algorithm>
#include <cmath>
#include <new>
#include <optional>

#include "charlib/io.h"
#include "core/cost_model.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
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
  out.degradation = e.degradation;
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
  params.reject_unread();
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
  const std::string lib = params.text("lib");
  params.reject_unread();
  const charlib::CharacterizedLibrary& chars = [&]() -> const charlib::CharacterizedLibrary& {
    const PhaseScope phase("phase.parse", "parse", job);
    return chars_for(lib);
  }();
  cfg.run = watchdog;
  cfg.correlation_mode = core::correlation_mode_for(chars);
  // Retry degradation: after a retryable failure, answer from the O(1)
  // integral rung instead of re-running the rung that failed.
  if (degrade >= 1) cfg.method = core::EstimationMethod::kIntegralPolar;

  const PhaseScope phase("phase.estimate", "estimate", job);
  const core::LeakageEstimator estimator(chars, cfg);
  return output_of(estimator.estimate(d));
}

JobOutput JobRunner::run_netlist(const JobSpec& job, const util::RunControl* watchdog,
                                 int degrade) {
  const Params params(job);
  // A batch job shares the host with the batch's other workers, so its exact
  // analysis runs on one thread unless it asks for more; a CLI run owns the
  // host and defaults to all cores.
  const NetlistRequest req = netlist_request(params, /*default_threads=*/1);
  const auto [chars, nl] = inputs_for(job, params);
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const placement::Placement pl(&nl, fp);
  const core::CorrelationMode mode = core::correlation_mode_for(chars);
  const core::RandomGate rg(chars, netlist::extract_usage(nl), req.signal_probability, mode);

  // The requested rung: the exact analysis when the job asks for it, or when
  // a time budget walks the whole ladder; eq. (17) otherwise. Each retryable
  // failure requests one rung lower.
  core::Rung requested = core::exact_rung(req.exact_options.method, fp);
  if (degrade >= 2) requested = core::Rung::kIntegralPolar;
  else if (degrade >= 1 || (!req.exact && req.time_budget_s <= 0.0))
    requested = core::Rung::kLinear;
  std::optional<core::ExactEstimator> exact;
  if (requested < core::Rung::kLinear) exact.emplace(chars, req.signal_probability, mode);

  const PhaseScope phase("phase.estimate", "estimate", job);
  return output_of(core::walk_ladder({.rg = rg,
                                      .fp = fp,
                                      .exact = exact ? &*exact : nullptr,
                                      .placement = &pl,
                                      .exact_options = req.exact_options,
                                      .time_budget_s = req.time_budget_s,
                                      .mem_budget_bytes = mem_budget_bytes_,
                                      .run = watchdog},
                                     requested));
}

JobOutput JobRunner::run_mc(const JobSpec& job, const util::RunControl* watchdog) {
  const Params params(job);
  mc::FullChipMcOptions opts = mc_options(params);
  opts.run = watchdog;
  const auto [chars, nl] = inputs_for(job, params);
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const placement::Placement pl(&nl, fp);

  // Memory admission: MC has no cheaper rung, so it halves its workers (a
  // request for all cores counting as one) until the bytes the engine will
  // reserve on the embedding it chooses fit. Choosing runs exact FFT
  // estimates of the design, which reserve their arena like any other, so
  // that arena must fit first. Without room for the estimates or for one
  // worker the job is refused as a configuration error: the budget is fixed
  // for the run, so a retry would meet the same refusal.
  JobOutput out;
  if (mem_budget_bytes_ > 0) {
    const std::uint64_t check = core::CostModel::exact_fft_bytes(fp.rows, fp.cols);
    if (check > mem_budget_bytes_)
      throw ConfigError("admission: mc at " + std::to_string(fp.num_sites()) + " sites needs " +
                        std::to_string(check) + " bytes to choose its field embedding, over the " +
                        std::to_string(mem_budget_bytes_) + "-byte memory budget");
    const mc::McEmbedding embedding = mc::FullChipMonteCarlo::choose_embedding(
        pl, chars, opts.signal_probability, opts.threads);
    const auto bytes = [&](std::size_t threads) {
      return mc::FullChipMonteCarlo::arena_bytes(pl, embedding, opts.trials, threads);
    };
    const std::size_t requested = std::max<std::size_t>(opts.threads, 1);
    opts.threads = requested;
    while (opts.threads > 1 && bytes(opts.threads) > mem_budget_bytes_) opts.threads /= 2;
    if (bytes(opts.threads) > mem_budget_bytes_)
      throw ConfigError("admission: mc at " + std::to_string(fp.num_sites()) + " sites needs " +
                        std::to_string(bytes(1)) + " bytes even with a single worker, over the " +
                        std::to_string(mem_budget_bytes_) + "-byte memory budget");
    if (opts.threads != requested)
      out.degradation = "mem: mc threads " + std::to_string(requested) + "->" +
                        std::to_string(opts.threads);
  }

  const PhaseScope phase("phase.estimate", "estimate", job);
  mc::FullChipMonteCarlo engine(pl, chars, opts);
  const mc::FullChipMcResult r = engine.run();
  out.mean_na = r.mean_na;
  out.sigma_na = r.sigma_na;
  out.method = "mc";
  if (!std::isfinite(out.mean_na) || !std::isfinite(out.sigma_na))
    throw NumericalError("mc produced a non-finite result");
  return out;
}

JobOutput JobRunner::run_characterize(const JobSpec& job, const util::RunControl* watchdog) {
  const Params params(job);
  const std::string out_path = params.text("out");
  const CharacterizeRequest req = characterize_request(params);
  params.reject_unread();
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
