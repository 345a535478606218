#include "service/params.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>

#include "util/format.h"

namespace rgleak::service {

namespace {

constexpr Choice<core::EstimationMethod> kMethods[] = {
    {"auto", core::EstimationMethod::kAuto},
    {"linear", core::EstimationMethod::kLinear},
    {"rect", core::EstimationMethod::kIntegralRect},
    {"polar", core::EstimationMethod::kIntegralPolar},
};
constexpr Choice<core::ExactMethod> kExactMethods[] = {
    {"auto", core::ExactMethod::kAuto},
    {"direct", core::ExactMethod::kDirect},
    {"fft", core::ExactMethod::kFft},
};
constexpr Choice<bool> kCharacterizeModes[] = {{"analytic", false}, {"mc", true}};

// What `range` admits, in words; nullptr when `v` lies in it.
const char* outside(Range range, double v) {
  const bool finite = std::isfinite(v);
  switch (range) {
    case Range::kAny: return finite ? nullptr : "a finite number";
    case Range::kNonNegative: return finite && v >= 0.0 ? nullptr : "a finite number >= 0";
    case Range::kPositive: return finite && v > 0.0 ? nullptr : "a finite number > 0";
    case Range::kUnit: return v >= 0.0 && v <= 1.0 ? nullptr : "a number in [0, 1]";
    case Range::kOpenUnit: return v > 0.0 && v < 1.0 ? nullptr : "a number in (0, 1)";
  }
  return "a number";
}

}  // namespace

Params::Params(const JobSpec& job)
    : params_(&job.params),
      context_(job.id.empty() ? job.kind : "job '" + job.id + "' (" + job.kind + ")") {}

const std::string* Params::raw(const char* key, bool required) const {
  const auto it = params_->find(key);
  if (it != params_->end()) read_.push_back(&it->first);
  if (it != params_->end() && !(required && it->second.empty())) return &it->second;
  if (required) throw ConfigError(context_ + " needs parameter \"" + key + "\"");
  return nullptr;
}

void Params::reject_unread() const {
  for (const auto& [key, value] : *params_)
    if (key != "failpoint" && std::find(read_.begin(), read_.end(), &key) == read_.end())
      throw ConfigError(context_ + ": unknown parameter \"" + key + "\"");
}

void Params::fail(const char* key, const std::string& why) const {
  throw ConfigError(context_ + ": parameter \"" + key + "\" " + why);
}

std::string Params::text(const char* key, std::optional<std::string> fallback) const {
  const std::string* v = raw(key, !fallback);
  return v != nullptr ? *v : *fallback;
}

double Params::number(const char* key, std::optional<double> fallback, Range range) const {
  const std::string* v = raw(key, !fallback);
  if (v == nullptr) return *fallback;
  double out = NAN;  // stays NaN unless the value parses
  util::parse_double(*v, out);
  if (const char* expected = outside(range, out))
    fail(key, std::string("expects ") + expected + ", got '" + *v + "'");
  return out;
}

std::size_t Params::count(const char* key, std::optional<std::size_t> fallback, std::size_t min,
                          std::size_t max) const {
  const std::string* v = raw(key, !fallback);
  if (v == nullptr) return *fallback;
  // An integer literal reads exactly; another spelling ("1e3") must be a
  // whole number no larger than 2^53, where doubles are still exact.
  std::uint64_t n = 0;
  double d = 0.0;
  bool whole = util::parse_int(*v, n);
  if (!whole && util::parse_double(*v, d) && d >= 0.0 && d <= static_cast<double>(kMaxCount) &&
      d == std::floor(d)) {
    n = static_cast<std::uint64_t>(d);
    whole = true;
  }
  if (!whole || n < min || n > max)
    fail(key, "expects an integer in [" + std::to_string(min) + ", " +
                  (max == kMaxCount ? std::string("2^53") : std::to_string(max)) + "], got '" +
                  *v + "'");
  return static_cast<std::size_t>(n);
}

std::size_t Params::threads(const char* key, std::size_t fallback) const {
  return count(key, fallback, 0, 256);
}

std::uint64_t Params::seed(const char* key, std::uint64_t fallback) const {
  const std::string* v = raw(key, false);
  std::uint64_t out = fallback;
  if (v != nullptr && !util::parse_int(*v, out))
    fail(key, "expects an integer literal in [0, 2^64), got '" + *v + "'");
  return out;
}

bool Params::flag(const char* key, bool fallback) const {
  const std::string* v = raw(key, false);
  if (v == nullptr) return fallback;
  if (*v == "true" || *v == "1") return true;
  if (*v != "false" && *v != "0") fail(key, "expects true or false, got '" + *v + "'");
  return false;
}

netlist::UsageHistogram usage_histogram(const Params& p, const cells::StdCellLibrary& lib) {
  const std::string spec = p.text("usage");
  netlist::UsageHistogram u;
  u.alphas.assign(lib.size(), 0.0);
  std::istringstream ss(spec);
  std::string item;
  double total = 0.0;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    double w = NAN;  // stays NaN unless the weight parses
    if (colon != std::string::npos) util::parse_double(item.substr(colon + 1), w);
    if (outside(Range::kPositive, w) != nullptr)
      p.fail("usage", "expects CELL:weight items with a finite weight > 0, got '" + item + "'");
    const std::string name = item.substr(0, colon);
    if (!lib.contains(name)) p.fail("usage", "names unknown cell '" + name + "'");
    u.alphas[lib.index_of(name)] += w;
    total += w;
  }
  if (outside(Range::kPositive, total) != nullptr)
    p.fail("usage", "expects weights with a finite sum > 0, got '" + spec + "'");
  for (double& a : u.alphas) a /= total;
  return u;
}

std::pair<double, double> die_nm(const Params& p) {
  const std::string spec = p.text("die_um");
  const auto x = spec.find('x');
  double w = NAN, h = NAN;  // stay NaN unless their sides parse
  if (x != std::string::npos) {
    util::parse_double(spec.substr(0, x), w);
    util::parse_double(spec.substr(x + 1), h);
  }
  if (outside(Range::kPositive, w * 1000.0) != nullptr ||
      outside(Range::kPositive, h * 1000.0) != nullptr)
    p.fail("die_um", "expects WxH in um, both finite and > 0, got '" + spec + "'");
  return {w * 1000.0, h * 1000.0};
}

core::DesignCharacteristics design_characteristics(const Params& p,
                                                   const cells::StdCellLibrary& lib) {
  core::DesignCharacteristics d;
  d.usage = usage_histogram(p, lib);
  d.gate_count = p.count("gates", std::nullopt, 1);
  std::tie(d.width_nm, d.height_nm) = die_nm(p);
  return d;
}

core::EstimatorConfig estimator_config(const Params& p) {
  core::EstimatorConfig cfg;
  cfg.method = p.pick("method", "auto", kMethods).value;
  cfg.maximize_signal_probability = p.text("p", "max") == "max";
  if (!cfg.maximize_signal_probability)
    cfg.signal_probability = p.number("p", std::nullopt, Range::kUnit);
  cfg.time_budget_s = p.number("time_budget_s", 0.0, Range::kPositive);
  return cfg;
}

NetlistRequest netlist_request(const Params& p, std::size_t default_threads) {
  NetlistRequest r;
  r.signal_probability = p.number("p", 0.5, Range::kUnit);
  r.time_budget_s = p.number("time_budget_s", 0.0, Range::kPositive);
  r.exact = p.flag("exact", false) || p.has("exact_method");
  const Choice<core::ExactMethod>& method = p.pick("exact_method", "auto", kExactMethods);
  r.exact_method = method.name;
  r.exact_options.method = method.value;
  r.exact_options.threads = p.threads("threads", default_threads);
  return r;
}

mc::FullChipMcOptions mc_options(const Params& p) {
  mc::FullChipMcOptions opts;
  opts.trials = p.count("trials", opts.trials, 2);
  opts.seed = p.seed("seed", opts.seed);
  opts.threads = p.threads("threads", opts.threads);
  opts.signal_probability = p.number("p", opts.signal_probability, Range::kUnit);
  opts.resample_states_per_trial = p.flag("resample", opts.resample_states_per_trial);
  return opts;
}

CharacterizeRequest characterize_request(const Params& p) {
  const Choice<bool>& mode = p.pick("mode", "analytic", kCharacterizeModes);
  process::LengthVariation len;
  len.mean_nm = p.number("mean_l", 40.0, Range::kPositive);
  len.sigma_d2d_nm = p.number("sigma_d2d", 1.7678, Range::kNonNegative);
  len.sigma_wid_nm = p.number("sigma_wid", 1.7678, Range::kNonNegative);
  if (len.sigma_d2d_nm == 0.0 && len.sigma_wid_nm == 0.0)
    p.fail("sigma_wid", "and sigma_d2d are both 0: the process has no length variance");
  process::VtVariation vt;
  vt.sigma_v = p.number("sigma_vt", vt.sigma_v, Range::kNonNegative);
  const double scale_nm = p.number("corr_scale_um", 100.0, Range::kPositive) * 1000.0;
  auto corr = p.parse("corr", "exponential", [&](const std::string& family) {
    return process::make_correlation(family, scale_nm);
  });
  return {mode.name, mode.value, process::ProcessVariation(len, vt, std::move(corr)),
          p.count("samples", charlib::McCharOptions{}.samples, 2)};
}

charlib::CharacterizedLibrary CharacterizeRequest::run(const cells::StdCellLibrary& lib,
                                                       const util::RunControl* control) const {
  if (monte_carlo) {
    charlib::McCharOptions opts;
    opts.samples = samples;
    opts.run = control;
    return charlib::characterize_monte_carlo(lib, process, opts);
  }
  charlib::AnalyticCharOptions opts;
  opts.run = control;
  return charlib::characterize_analytic(lib, process, opts);
}

}  // namespace rgleak::service
