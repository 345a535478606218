#include "service/job_runner.h"

#include <cmath>
#include <new>
#include <sstream>

#include "charlib/io.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
#include "core/cost_model.h"
#include "core/random_gate.h"
#include "mc/full_chip_mc.h"
#include "netlist/io.h"
#include "placement/placement.h"
#include "process/variation.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/format.h"
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

std::string require_param(const JobSpec& job, const char* key) {
  const auto it = job.params.find(key);
  if (it == job.params.end() || it->second.empty())
    throw ConfigError("job '" + job.id + "' (" + job.kind + ") needs parameter \"" + key + "\"");
  return it->second;
}

std::string param(const JobSpec& job, const char* key, const std::string& fallback) {
  const auto it = job.params.find(key);
  return it == job.params.end() ? fallback : it->second;
}

double num_param(const JobSpec& job, const char* key, double fallback) {
  const auto it = job.params.find(key);
  if (it == job.params.end()) return fallback;
  double v = 0.0;
  if (!util::parse_double(it->second, v))
    throw ConfigError("job '" + job.id + "': parameter \"" + key + "\" expects a number, got '" +
                      it->second + "'");
  return v;
}

std::size_t count_param(const JobSpec& job, const char* key, std::size_t fallback) {
  const double v = num_param(job, key, static_cast<double>(fallback));
  if (v < 0.0 || v != std::floor(v))
    throw ConfigError("job '" + job.id + "': parameter \"" + key +
                      "\" expects a non-negative integer");
  return static_cast<std::size_t>(v);
}

bool bool_param(const JobSpec& job, const char* key, bool fallback) {
  const auto it = job.params.find(key);
  if (it == job.params.end()) return fallback;
  if (it->second == "true" || it->second == "1") return true;
  if (it->second == "false" || it->second == "0") return false;
  throw ConfigError("job '" + job.id + "': parameter \"" + key + "\" expects true or false");
}

netlist::UsageHistogram parse_usage_spec(const cells::StdCellLibrary& lib, const JobSpec& job,
                                         const std::string& spec) {
  netlist::UsageHistogram u;
  u.alphas.assign(lib.size(), 0.0);
  std::istringstream ss(spec);
  std::string item;
  double total = 0.0;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos)
      throw ConfigError("job '" + job.id + "': bad usage item '" + item + "'");
    const std::string name = item.substr(0, colon);
    double w = 0.0;
    if (!util::parse_double(item.substr(colon + 1), w)) w = -1.0;
    if (w <= 0.0) throw ConfigError("job '" + job.id + "': bad usage weight in '" + item + "'");
    u.alphas[lib.index_of(name)] += w;
    total += w;
  }
  if (total <= 0.0) throw ConfigError("job '" + job.id + "': usage spec is empty");
  for (double& a : u.alphas) a /= total;
  return u;
}

void parse_die_spec(const JobSpec& job, const std::string& spec, double& w_nm, double& h_nm) {
  const auto x = spec.find('x');
  double w = 0.0, h = 0.0;
  if (x != std::string::npos) {
    if (!util::parse_double(spec.substr(0, x), w) || !util::parse_double(spec.substr(x + 1), h))
      w = h = 0.0;
  }
  if (w <= 0.0 || h <= 0.0)
    throw ConfigError("job '" + job.id + "': die_um expects WxH in um, got '" + spec + "'");
  w_nm = w * 1000.0;
  h_nm = h * 1000.0;
}

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

const netlist::Netlist& JobRunner::netlist_for(const std::string& path) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  const auto it = netlist_cache_.find(path);
  if (it != netlist_cache_.end()) return it->second;
  return netlist_cache_.emplace(path, netlist::load_netlist(*library_, path)).first->second;
}

JobOutput JobRunner::run_estimate(const JobSpec& job, const util::RunControl* watchdog,
                                  int degrade) {
  const charlib::CharacterizedLibrary& chars = [&]() -> const charlib::CharacterizedLibrary& {
    const PhaseScope phase("phase.parse", "parse", job);
    return chars_for(require_param(job, "lib"));
  }();

  core::DesignCharacteristics d;
  d.usage = parse_usage_spec(*library_, job, require_param(job, "usage"));
  d.gate_count = count_param(job, "gates", 0);
  if (d.gate_count == 0) throw ConfigError("job '" + job.id + "': gates must be positive");
  parse_die_spec(job, require_param(job, "die_um"), d.width_nm, d.height_nm);

  core::EstimatorConfig cfg;
  cfg.run = watchdog;
  cfg.time_budget_s = num_param(job, "time_budget_s", 0.0);
  cfg.correlation_mode = chars.has_models() ? core::CorrelationMode::kAnalytic
                                            : core::CorrelationMode::kSimplified;
  const std::string method = param(job, "method", "auto");
  if (method == "auto") cfg.method = core::EstimationMethod::kAuto;
  else if (method == "linear") cfg.method = core::EstimationMethod::kLinear;
  else if (method == "rect") cfg.method = core::EstimationMethod::kIntegralRect;
  else if (method == "polar") cfg.method = core::EstimationMethod::kIntegralPolar;
  else throw ConfigError("job '" + job.id + "': unknown method '" + method + "'");
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

  const std::string p = param(job, "p", "max");
  if (p == "max") {
    cfg.maximize_signal_probability = true;
  } else {
    cfg.maximize_signal_probability = false;
    cfg.signal_probability = num_param(job, "p", 0.5);
  }

  const PhaseScope phase("phase.estimate", "estimate", job);
  const core::LeakageEstimator estimator(chars, cfg);
  JobOutput out = output_of(estimator.estimate(d));
  out.degradation = degradation;
  return out;
}

JobOutput JobRunner::run_netlist(const JobSpec& job, const util::RunControl* watchdog,
                                 int degrade) {
  const auto parse_inputs = [&] {
    const PhaseScope phase("phase.parse", "parse", job);
    const charlib::CharacterizedLibrary& chars = chars_for(require_param(job, "lib"));
    const netlist::Netlist& nl = netlist_for(require_param(job, "netlist"));
    return std::pair<const charlib::CharacterizedLibrary&, const netlist::Netlist&>(chars, nl);
  };
  const auto [chars, nl] = parse_inputs();
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const netlist::UsageHistogram usage = netlist::extract_usage(nl);
  const core::CorrelationMode mode = chars.has_models() ? core::CorrelationMode::kAnalytic
                                                        : core::CorrelationMode::kSimplified;
  const double p = num_param(job, "p", 0.5);
  const core::RandomGate rg(chars, usage, p, mode);

  const double budget_s = num_param(job, "time_budget_s", 0.0);
  const bool want_exact = bool_param(job, "exact", false) || job.params.count("exact_method") > 0;

  core::ExactOptions opts;
  opts.threads = count_param(job, "threads", 1);
  const std::string method = param(job, "exact_method", "auto");
  if (method == "auto") opts.method = core::ExactMethod::kAuto;
  else if (method == "direct") opts.method = core::ExactMethod::kDirect;
  else if (method == "fft") opts.method = core::ExactMethod::kFft;
  else throw ConfigError("job '" + job.id + "': unknown exact_method '" + method + "'");

  // The cost ladder: retry degradation picks the requested rung (one down per
  // retryable failure), then memory admission may walk further down still.
  // Auto is admitted at the FFT rung — the most memory it could occupy.
  std::string requested;
  if (degrade >= 2) requested = "integral_polar";
  else if (degrade >= 1 || (!want_exact && budget_s <= 0.0)) requested = "linear";
  else requested = opts.method == core::ExactMethod::kDirect ? "exact_direct" : "exact_fft";

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
    if (admitted == "exact_direct" && requested == "exact_fft")
      opts.method = core::ExactMethod::kDirect;
    const placement::Placement pl(&nl, fp);
    const core::ExactEstimator exact(chars, p, mode);
    if (budget_s > 0.0) {
      const core::CostModel costs = core::CostModel::defaults();
      out = output_of(
          core::estimate_placed_budgeted(exact, rg, pl, budget_s, costs, opts, watchdog));
    } else {
      opts.run = watchdog;
      out = output_of(exact.estimate(pl, opts));
    }
  }
  out.degradation = degradation;
  return out;
}

JobOutput JobRunner::run_mc(const JobSpec& job, const util::RunControl* watchdog) {
  const auto parse_inputs = [&] {
    const PhaseScope phase("phase.parse", "parse", job);
    const charlib::CharacterizedLibrary& chars = chars_for(require_param(job, "lib"));
    const netlist::Netlist& nl = netlist_for(require_param(job, "netlist"));
    return std::pair<const charlib::CharacterizedLibrary&, const netlist::Netlist&>(chars, nl);
  };
  const auto [chars, nl] = parse_inputs();
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const placement::Placement pl(&nl, fp);

  mc::FullChipMcOptions opts;
  opts.trials = count_param(job, "trials", 200);
  opts.seed = static_cast<std::uint64_t>(num_param(job, "seed", 777.0));
  opts.threads = count_param(job, "threads", 1);
  opts.signal_probability = num_param(job, "p", 0.5);
  opts.resample_states_per_trial = bool_param(job, "resample", false);
  opts.run = watchdog;

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
  const std::string out_path = require_param(job, "out");
  const std::string mode = param(job, "mode", "analytic");
  if (mode != "analytic" && mode != "mc")
    throw ConfigError("job '" + job.id + "': unknown characterize mode '" + mode + "'");

  process::LengthVariation len;
  len.mean_nm = num_param(job, "mean_l", 40.0);
  len.sigma_d2d_nm = num_param(job, "sigma_d2d", 1.7678);
  len.sigma_wid_nm = num_param(job, "sigma_wid", 1.7678);
  process::VtVariation vt;
  vt.sigma_v = num_param(job, "sigma_vt", 0.02);
  const std::string family = param(job, "corr", "exponential");
  const double scale_nm = num_param(job, "corr_scale_um", 100.0) * 1000.0;
  const process::ProcessVariation process(len, vt, process::make_correlation(family, scale_nm));

  charlib::CharacterizedLibrary chars = [&] {
    const PhaseScope phase("phase.characterize", "characterize", job);
    if (mode == "mc") {
      charlib::McCharOptions opts;
      opts.samples = count_param(job, "samples", 20000);
      opts.run = watchdog;
      return charlib::characterize_monte_carlo(*library_, process, opts);
    }
    charlib::AnalyticCharOptions opts;
    opts.run = watchdog;
    return charlib::characterize_analytic(*library_, process, opts);
  }();
  {
    const PhaseScope phase("phase.write", "write", job);
    charlib::save_characterization(chars, out_path);
  }

  JobOutput out;
  out.method = mode == "mc" ? "characterize_mc" : "characterize_analytic";
  return out;
}

}  // namespace rgleak::service
