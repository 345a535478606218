#pragma once
// The three workloads. Each runs its set-up, a timed phase of at least
// `seconds`, and the correctness checks, and fills a Report with the
// end-to-end metrics; a traced run (`trace`) also replays the workload's
// inner calls and fills the per-layer metrics instead.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  ///< scratch root; every repetition gets a fresh subdirectory
};

Report run_mc_validate(const Options& o);
Report run_plan_batch(const Options& o);
Report run_table1_signoff(const Options& o);

/// Set-up repetitions behind `setup_s` (the median is reported).
constexpr int kSetupReps = 3;

/// Wall times of a workload's set-up repetitions, seconds.
struct SetupWalls {
  std::vector<double> untraced_s;
  double traced_s = 0.0;
};

/// Runs `make(tracer)` kSetupReps times untraced, or, for a traced run, once
/// untraced and once into `traced`. Returns the last result.
template <typename Make>
auto run_setups(const Options& o, Tracer& traced, SetupWalls& walls, Make make)
    -> decltype(make(traced)) {
  Tracer off(false);
  std::optional<decltype(make(traced))> keep;
  for (int r = 0; r < (o.trace ? 1 : kSetupReps); ++r) {
    keep.reset();
    const auto t0 = Clock::now();
    keep.emplace(make(off));
    walls.untraced_s.push_back(seconds_since(t0));
  }
  if (o.trace) {
    keep.reset();
    const auto t0 = Clock::now();
    keep.emplace(make(traced));
    walls.traced_s = seconds_since(t0);
  }
  return std::move(*keep);
}

/// Sets self.<layer>_ms for every layer in `self_ms` (cells, charlib, math,
/// netlist, process, mc, core, service) and unattributed_ms = wall - their
/// sum.
void emit_layers(Report& rep, const std::map<std::string, double>& self_ms, double wall_ms);

/// Adds the characterization attribution of a traced set-up: the device
/// solves inside the fits (calls x probed per-call cost) move from charlib to
/// cells. Also sets the charlib.* / cells.* / netlist.* metrics.
void attribute_setup(Report& rep, const Tracer& setup_trace, double leakage_us,
                     std::size_t leakage_calls, std::size_t corners,
                     std::map<std::string, double>& self_ms);

}  // namespace perfbench
