#pragma once
// The one reader of job parameters. The batch's manifest jobs
// (service/job_runner.h) and the CLI's flags (tools/rgleak_cli.cpp) both turn
// raw values into engine inputs here: every value is checked once, before any
// file loads, and a failed check is one ConfigError naming the parameter. The
// CLI spells parameter `a_b` as flag `--a-b`, and `time_budget_s` as
// `--time-budget`.
//
//   kind          parameter = default   accepted values
//   estimate      lib                   path, required
//                 usage                 "CELL:w,..." required; known cells,
//                                       finite weights > 0
//                 gates                 integer >= 1, required
//                 die_um                "WxH" in um, required; finite, > 0
//                 method = auto         auto | linear | rect | polar
//                 p = max               max, or a number in [0, 1]
//                 time_budget_s         finite > 0; absent = unlimited
//   netlist       lib, netlist          paths, required
//                 p = 0.5               [0, 1]
//                 exact = false         true | false | 1 | 0; an exact_method
//                                       also asks for the exact analysis
//                 exact_method = auto   auto | direct | fft
//                 threads = 1; CLI 0    0..256, 0 = all cores
//                 time_budget_s         finite > 0; absent = no budget ladder
//   mc            lib, netlist          paths, required
//                 trials = 500          integer >= 2
//                 seed = 777            integer literal in [0, 2^64)
//                 threads = 1           0..256, 0 = all cores
//                 p = 0.5               [0, 1]
//                 resample = false      true | false | 1 | 0
//   characterize  out                   path, required
//                 mode = analytic       analytic | mc
//                 samples = 20000       integer >= 2 (mc mode)
//                 mean_l = 40           nm, finite > 0
//                 sigma_d2d = 1.7678    nm, finite >= 0; not both sigmas 0
//                 sigma_wid = 1.7678    nm, finite >= 0
//                 sigma_vt = 0.02       V, finite >= 0
//                 corr = exponential    exponential | gaussian | linear |
//                                       spherical | matern32
//                 corr_scale_um = 100   finite > 0
//
// Counts are integers in [0, 2^53], as integer or float literals ("1e3");
// seeds are integer literals, so every digit counts. A parameter that no read
// asks for (a typo, a retired flag) is refused too: each front end calls
// Params::reject_unread once its reads are done, before any file loads.

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cells/library.h"
#include "charlib/characterize.h"
#include "core/leakage_estimator.h"
#include "mc/full_chip_mc.h"
#include "service/job.h"
#include "util/error.h"

namespace rgleak::service {

/// What Params::number accepts: finite; >= 0; > 0; [0, 1]; (0, 1).
enum class Range { kAny, kNonNegative, kPositive, kUnit, kOpenUnit };

/// A name a parameter may take and what it selects.
template <class T>
struct Choice {
  const char* name;
  T value;
};

/// Typed reads over one job's raw parameters; the JobSpec must outlive it. A
/// std::nullopt fallback makes the parameter required. Errors name the job,
/// or the command for a CLI JobSpec (one without an id).
class Params {
 public:
  static constexpr std::size_t kMaxCount = std::size_t{1} << 53;

  explicit Params(const JobSpec& job);

  bool has(const char* key) const { return raw(key, false) != nullptr; }
  /// A required text must be non-empty.
  std::string text(const char* key, std::optional<std::string> fallback = std::nullopt) const;
  double number(const char* key, std::optional<double> fallback, Range range = Range::kAny) const;
  std::size_t count(const char* key, std::optional<std::size_t> fallback, std::size_t min = 0,
                    std::size_t max = kMaxCount) const;
  /// A thread or worker count: at most 256, 0 = all cores.
  std::size_t threads(const char* key, std::size_t fallback) const;
  std::uint64_t seed(const char* key, std::uint64_t fallback) const;
  /// true | false | 1 | 0.
  bool flag(const char* key, bool fallback) const;

  /// The entry of `table` the parameter names.
  template <class T, std::size_t N>
  const Choice<T>& pick(const char* key, const char* fallback, const Choice<T> (&table)[N]) const {
    const std::string name = text(key, fallback);
    for (const Choice<T>& c : table)
      if (name == c.name) return c;
    std::string names;
    for (const Choice<T>& c : table) names += std::string(names.empty() ? "" : " | ") + c.name;
    fail(key, "expects " + names + ", got '" + name + "'");
  }

  /// `fn(value)`; a ConfigError it throws is raised again naming `key`.
  template <class F>
  auto parse(const char* key, const std::string& fallback, F&& fn) const {
    try {
      return fn(text(key, fallback));
    } catch (const ConfigError& e) {
      fail(key, "is invalid: " + e.message());
    }
  }

  /// Throws ConfigError "<job>: parameter "<key>" <why>".
  [[noreturn]] void fail(const char* key, const std::string& why) const;

  /// Throws ConfigError naming the first parameter that no read above asked
  /// for (has() counts as a read). `failpoint` is always accepted: the
  /// process sandbox (service/subprocess.cpp) reads it from the raw job.
  void reject_unread() const;

 private:
  /// The raw value, recorded as read; nullptr when absent and not `required`.
  const std::string* raw(const char* key, bool required) const;

  const std::map<std::string, std::string>* params_;
  std::string context_;
  mutable std::vector<const std::string*> read_;  ///< keys of params_ read so far
};

/// "usage": CELL:weight pairs, normalized over `lib`.
netlist::UsageHistogram usage_histogram(const Params& p, const cells::StdCellLibrary& lib);
/// "die_um" as (width, height) in nm.
std::pair<double, double> die_nm(const Params& p);

/// estimate: usage, gates, die_um.
core::DesignCharacteristics design_characteristics(const Params& p,
                                                   const cells::StdCellLibrary& lib);
/// estimate: method, p, time_budget_s. The caller adds the run control and,
/// once the library is loaded, its correlation mode.
core::EstimatorConfig estimator_config(const Params& p);

/// netlist: p, exact, exact_method, threads, time_budget_s.
struct NetlistRequest {
  double signal_probability = 0.5;
  double time_budget_s = 0.0;  ///< 0 = no budgeted ladder
  bool exact = false;          ///< run the exact pairwise analysis
  const char* exact_method = "auto";
  core::ExactOptions exact_options;
};
NetlistRequest netlist_request(const Params& p,
                               std::size_t default_threads = core::ExactOptions{}.threads);

/// mc: trials, seed, threads, p, resample; the rest keeps the engine defaults.
mc::FullChipMcOptions mc_options(const Params& p);

/// characterize: mode, samples, mean_l, sigma_d2d, sigma_wid, sigma_vt, corr,
/// corr_scale_um.
struct CharacterizeRequest {
  const char* mode;
  bool monte_carlo;
  process::ProcessVariation process;
  std::size_t samples;

  /// `control` stops the characterization between (cell, state) pairs.
  charlib::CharacterizedLibrary run(const cells::StdCellLibrary& lib,
                                    const util::RunControl* control) const;
};
CharacterizeRequest characterize_request(const Params& p);

}  // namespace rgleak::service
