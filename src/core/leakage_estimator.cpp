#include "core/leakage_estimator.h"

#include <cmath>
#include <sstream>

#include "util/require.h"

namespace rgleak::core {

namespace {

std::string over_budget_note(const char* rung, double predicted_ms, double remaining_ms) {
  std::ostringstream os;
  os.precision(1);
  os << std::fixed << rung << " predicted " << predicted_ms << " ms > budget " << remaining_ms
     << " ms";
  return os.str();
}

// Appends `next` to a semicolon-joined degradation trail.
void append_note(std::string* trail, const std::string& next) {
  if (!trail->empty()) *trail += "; ";
  *trail += next;
}

// The next rung down the ladder.
Rung below(Rung rung) { return static_cast<Rung>(static_cast<int>(rung) + 1); }

LeakageEstimate run_rung(const Ladder& ladder, Rung rung, const util::RunControl* run) {
  switch (rung) {
    case Rung::kExactFft:
    case Rung::kExactDirect: {
      RGLEAK_REQUIRE(ladder.exact != nullptr && ladder.placement != nullptr,
                     "an exact rung needs a placed design");
      ExactOptions opts = ladder.exact_options;
      opts.method = rung == Rung::kExactFft ? ExactMethod::kFft : ExactMethod::kDirect;
      opts.run = run;
      return ladder.exact->estimate(*ladder.placement, opts);
    }
    case Rung::kLinear: return estimate_linear(ladder.rg, ladder.fp, run);
    case Rung::kIntegralRect: return estimate_integral_rect(ladder.rg, ladder.fp);
    case Rung::kIntegralPolar: break;
  }
  return estimate_integral_polar(ladder.rg, ladder.fp);
}

}  // namespace

placement::Floorplan floorplan_for_design(const DesignCharacteristics& design) {
  RGLEAK_REQUIRE(design.gate_count >= 1, "design needs at least one gate");
  RGLEAK_REQUIRE(design.width_nm > 0.0 && design.height_nm > 0.0,
                 "design needs positive layout dimensions");
  const double n = static_cast<double>(design.gate_count);
  const double aspect = design.height_nm / design.width_nm;
  placement::Floorplan fp;
  fp.rows = static_cast<std::size_t>(std::max(1.0, std::round(std::sqrt(n * aspect))));
  fp.cols = (design.gate_count + fp.rows - 1) / fp.rows;
  fp.site_w_nm = design.width_nm / static_cast<double>(fp.cols);
  fp.site_h_nm = design.height_nm / static_cast<double>(fp.rows);
  return fp;
}

LeakageEstimator::LeakageEstimator(const charlib::CharacterizedLibrary& chars,
                                   EstimatorConfig config)
    : chars_(&chars), config_(config) {
  RGLEAK_REQUIRE(config_.signal_probability >= 0.0 && config_.signal_probability <= 1.0,
                 "signal probability must be in [0, 1]");
}

double LeakageEstimator::resolve_signal_probability(const netlist::UsageHistogram& usage) const {
  if (config_.maximize_signal_probability)
    return max_leakage_signal_probability(*chars_, usage);
  return config_.signal_probability;
}

RandomGate LeakageEstimator::make_random_gate(const netlist::UsageHistogram& usage) const {
  return RandomGate(*chars_, usage, resolve_signal_probability(usage),
                    config_.correlation_mode);
}

LeakageEstimate LeakageEstimator::estimate(const DesignCharacteristics& design) const {
  const placement::Floorplan fp = floorplan_for_design(design);
  const RandomGate rg = make_random_gate(design.usage);

  Rung rung = Rung::kIntegralPolar;
  switch (config_.method) {
    case EstimationMethod::kLinear: rung = Rung::kLinear; break;
    case EstimationMethod::kIntegralRect: rung = Rung::kIntegralRect; break;
    case EstimationMethod::kIntegralPolar: break;
    case EstimationMethod::kAuto:
      if (design.gate_count <= 10000) rung = Rung::kLinear;
      break;
  }
  LeakageEstimate e = walk_ladder({.rg = rg,
                                   .fp = fp,
                                   .time_budget_s = config_.time_budget_s,
                                   .costs = &config_.cost_model,
                                   .run = config_.run},
                                  rung);
  if (config_.apply_vt_mean_factor)
    e.mean_na *= vt_mean_factor(chars_->process().vt(), chars_->library().tech());
  return e;
}

const char* rung_name(Rung rung) {
  switch (rung) {
    case Rung::kExactFft: return "exact_fft";
    case Rung::kExactDirect: return "exact_direct";
    case Rung::kLinear: return "linear";
    case Rung::kIntegralRect: return "integral_rect";
    case Rung::kIntegralPolar: break;
  }
  return "integral_polar";
}

Rung exact_rung(ExactMethod method, const placement::Floorplan& fp) {
  return resolve_exact_method(method, fp.num_sites()) == ExactMethod::kFft ? Rung::kExactFft
                                                                           : Rung::kExactDirect;
}

std::uint64_t rung_bytes(Rung rung, std::size_t gates, const placement::Floorplan& fp) {
  if (rung == Rung::kExactFft) return CostModel::exact_fft_bytes(fp.rows, fp.cols);
  if (rung == Rung::kExactDirect) return CostModel::exact_direct_bytes(gates, fp.rows, fp.cols);
  return 0;
}

LeakageEstimate walk_ladder(const Ladder& ladder, Rung requested) {
  const bool timed = ladder.time_budget_s > 0.0;
  if (!timed && ladder.mem_budget_bytes == 0) return run_rung(ladder, requested, ladder.run);

  // Memory: enter at the first rung whose arena fits. The arenas shrink down
  // the ladder, and eq. (17) and the integrals reserve nothing.
  const std::size_t gates = ladder.placement != nullptr ? ladder.placement->netlist().size() : 0;
  Rung first = requested;
  while (ladder.mem_budget_bytes > 0 &&
         rung_bytes(first, gates, ladder.fp) > ladder.mem_budget_bytes)
    first = below(first);
  std::string trail;
  if (first != requested)
    trail = std::string("mem: ") + rung_name(requested) + "->" + rung_name(first);

  // Time: skip a rung predicted over what is left of the budget, and cancel
  // one that overruns its prediction at the armed deadline.
  util::RunControl run;
  run.set_parent(ladder.run);
  if (timed) run.arm_budget(ladder.time_budget_s);
  static const CostModel kDefaultCosts = CostModel::defaults();
  const CostModel& costs = ladder.costs != nullptr ? *ladder.costs : kDefaultCosts;
  for (Rung rung = first; rung <= Rung::kLinear; rung = below(rung)) {
    const char* name = rung_name(rung);
    if (timed) {
      const double predicted_ms = costs.predict_ms(name, ladder.fp.num_sites());
      const double remaining_ms = run.remaining_s() * 1e3;
      if (predicted_ms > remaining_ms) {
        append_note(&trail, over_budget_note(name, predicted_ms, remaining_ms));
        continue;
      }
    }
    try {
      LeakageEstimate e = run_rung(ladder, rung, &run);
      e.degradation = trail;
      return e;
    } catch (const DeadlineExceeded&) {
      // The budget's deadline degrades to the next rung. An external stop
      // (SIGINT, a batch shutdown forwarded through the parent link), or any
      // stop of an untimed walk, propagates: the caller wants out, not a
      // cheaper answer.
      if (!timed || run.reason() == util::StopReason::kCancelled) throw;
      append_note(&trail, std::string(name) + " cancelled at deadline (cost misprediction)");
    }
  }

  // The O(1) integral floor costs microseconds: it answers even past the
  // deadline, since the caller asked for *an* estimate.
  LeakageEstimate e = run_rung(
      ladder, requested == Rung::kIntegralRect ? Rung::kIntegralRect : Rung::kIntegralPolar, &run);
  e.degradation = trail;
  return e;
}

LeakageEstimate estimate_placed_budgeted(const ExactEstimator& exact, const RandomGate& rg,
                                         const placement::Placement& placement, double budget_s,
                                         const CostModel& costs, ExactOptions opts,
                                         const util::RunControl* parent) {
  RGLEAK_REQUIRE(budget_s > 0.0, "budgeted estimate needs a positive time budget");
  const placement::Floorplan& fp = placement.floorplan();
  return walk_ladder({.rg = rg,
                      .fp = fp,
                      .exact = &exact,
                      .placement = &placement,
                      .exact_options = opts,
                      .time_budget_s = budget_s,
                      .costs = &costs,
                      .run = parent},
                     exact_rung(opts.method, fp));
}

}  // namespace rgleak::core
