// table1-signoff: paper Table 1 at sign-off scale. For TT/25C and FF/110C and
// every design (the nine ISCAS85 circuits on their own grids plus the c5315
// and c7552 mixes at 128^2 and 256^2 sites): the RandomGate and eq. 17 linear
// estimate, then a fresh exact estimator on the FFT path. The T^2 FFT
// cross-correlations and the many-type RandomGate builds dominate; it runs no
// Monte-Carlo or service code.

#include <cmath>
#include <optional>
#include <set>

#include "checks.h"
#include "core/estimators.h"
#include "netlist/io.h"
#include "setup.h"
#include "util/format.h"
#include "workloads.h"

namespace perfbench {

using namespace rgleak;

namespace {

constexpr double kTailPct = 75.0;
constexpr std::size_t kMinPasses = 3;  // 78 steps: 19 beyond p75
constexpr double kSignalProbability = 0.5;

struct SignoffSetup {
  std::vector<Corner> corners;
  std::vector<SignoffDesign> designs;
  std::vector<std::unique_ptr<placement::Placement>> placements;
};

core::ExactOptions exact_options() {
  core::ExactOptions eo;
  eo.method = core::ExactMethod::kFft;
  eo.threads = kThreads;
  return eo;
}

// RG-vs-exact sigma error (%) per "<corner> <design>" step.
using StepErrors = std::map<std::string, double>;

// One pass: every corner x design, each step timed; the checks run after the
// pass. Returns the pass wall, ms.
double signoff_pass(const SignoffSetup& s, Report& rep, Tracer& tracer,
                    std::vector<double>& step_ms, StepErrors& errors) {
  struct Answer {
    core::LeakageEstimate rg, exact;
  };
  std::vector<Answer> answers;
  const auto pass_t0 = Clock::now();
  for (const Corner& corner : s.corners) {
    for (std::size_t d = 0; d < s.designs.size(); ++d) {
      const auto t0 = Clock::now();
      Answer a;
      netlist::UsageHistogram usage;
      {
        const auto span = tracer.span("netlist.extract_usage", "netlist");
        usage = netlist::extract_usage(*s.designs[d].netlist);
      }
      std::optional<core::RandomGate> rg;
      {
        const auto span = tracer.span("core.random_gate", "core");
        rg.emplace(*corner.chars, usage, kSignalProbability, core::CorrelationMode::kAnalytic);
      }
      {
        const auto span = tracer.span("core.linear", "core");
        a.rg = core::estimate_linear(*rg, s.designs[d].floorplan);
      }
      std::optional<core::ExactEstimator> exact;
      {
        const auto span = tracer.span("core.exact_build", "core");
        exact.emplace(*corner.chars, kSignalProbability, core::CorrelationMode::kAnalytic);
      }
      {
        const auto span = tracer.span("core.exact_fft", "core");
        a.exact = exact->estimate(*s.placements[d], exact_options());
      }
      step_ms.push_back(ms_since(t0));
      answers.push_back(a);
    }
  }
  const double pass_ms = ms_since(pass_t0);
  std::size_t i = 0;
  for (const Corner& corner : s.corners) {
    for (const SignoffDesign& design : s.designs) {
      const Answer& a = answers[i++];
      const std::string step = corner.name + " " + design.netlist->name();
      std::string why;
      rep.check(check_signoff(a.rg, a.exact, signoff_sigma_band(design.netlist->name()), &why),
                step + ": " + why);
      errors[step] = 100.0 * std::abs(a.rg.sigma_na - a.exact.sigma_na) / a.exact.sigma_na;
    }
  }
  return pass_ms;
}

}  // namespace

Report run_table1_signoff(const Options& o) {
  Report rep;
  Tracer setup_trace(o.trace);
  SetupWalls walls;
  const SignoffSetup s = run_setups(o, setup_trace, walls, [&](Tracer& tr) {
    SignoffSetup st;
    st.corners = signoff_corners(tr);
    st.designs = make_signoff_designs(*st.corners.front().library, o.seed, tr);
    const std::string dir = fresh_dir(o.workdir, "signoff-setup");
    for (const SignoffDesign& d : st.designs) {
      st.placements.push_back(std::make_unique<placement::Placement>(d.netlist.get(), d.floorplan));
      netlist::save_netlist(*d.netlist, dir + "/" + d.netlist->name() + ".rgnl");
    }
    return st;
  });
  const std::size_t steps_per_pass = s.corners.size() * s.designs.size();

  Tracer off(false);
  std::vector<double> pass_ms, step_ms;
  StepErrors errors;
  double timed_s = 0.0;
  while (timed_s < o.seconds || pass_ms.size() < kMinPasses) {
    const double ms = signoff_pass(s, rep, off, step_ms, errors);
    pass_ms.push_back(ms);
    timed_s += 1e-3 * ms;
  }
  // A typical pass: each step at its median over the passes, so a slow spell
  // of the machine during one pass, or the first pass's cold caches, do not
  // move the result. The median step is taken over the typical steps; the
  // tail keeps every pass, slow ones included.
  std::vector<double> typical_ms;
  double typical_pass_ms = 0.0;
  std::string per_step;
  for (std::size_t step = 0; step < steps_per_pass; ++step) {
    std::vector<double> times;
    for (std::size_t i = step; i < step_ms.size(); i += steps_per_pass) times.push_back(step_ms[i]);
    typical_ms.push_back(median(times));
    typical_pass_ms += typical_ms.back();
    per_step += (per_step.empty() ? "" : " ") + util::format_double(typical_ms.back(), 4);
  }
  const double p50_ms = harrell_davis(typical_ms, 0.5);
  const Tail tail = tail_summary(step_ms, kTailPct);
  rep.detail("op", "one sign-off step: RandomGate + estimate_linear + fresh ExactEstimator (FFT, " +
                       std::to_string(kThreads) + " threads) for one corner x design; " +
                       std::to_string(steps_per_pass) + " steps per pass");
  rep.detail("signoff_s [s] (typical pass)", 1e-3 * typical_pass_ms);
  std::string passes;
  for (double ms : pass_ms) passes += (passes.empty() ? "" : " ") + util::format_double(1e-3 * ms, 4);
  rep.detail("pass_s", passes);
  rep.detail("step_ms (typical, in pass order)", per_step);
  rep.detail("op_tail_percentile", tail.percentile);
  rep.detail("op_samples", static_cast<double>(tail.samples));
  rep.detail("op_samples_beyond_tail", static_cast<double>(tail.beyond));
  for (const Corner& c : s.corners)
    for (const SignoffDesign& d : s.designs)
      rep.detail("RG-vs-exact sigma error % " + c.name + " " + d.netlist->name(),
                 util::format_double(errors[c.name + " " + d.netlist->name()], 4) + " (band " +
                     util::format_double(100.0 * signoff_sigma_band(d.netlist->name()), 4) +
                     ")");

  if (!o.trace) {
    rep.set("ops_per_s", 1e3 * static_cast<double>(steps_per_pass) / typical_pass_ms);
    rep.set("op_p50_ms", p50_ms);
    rep.set("op_tail_ms", tail.value);
    rep.set("setup_s", median(walls.untraced_s));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // ---- Traced run -------------------------------------------------------
  Tracer unit_trace(true);
  std::vector<double> traced_steps;
  const double traced_pass_ms = signoff_pass(s, rep, unit_trace, traced_steps, errors);
  const auto calls = [&](const char* name) {
    return static_cast<double>(std::max<std::size_t>(1, unit_trace.count(name)));
  };
  rep.set("core.random_gate_ms", unit_trace.total_ms("core.random_gate") / calls("core.random_gate"));
  rep.set("core.linear_ms", unit_trace.total_ms("core.linear") / calls("core.linear"));
  rep.set("core.exact_fft_ms", unit_trace.total_ms("core.exact_fft") / calls("core.exact_fft"));

  // Lazy f_{m,n} pair grids: the first estimate on an estimator builds them,
  // a second estimate on the same placement reuses them.
  double pairgrid_ms = 0.0;
  double type_pairs = 0.0;
  for (const Corner& corner : s.corners) {
    for (std::size_t d = 0; d < s.designs.size(); ++d) {
      const core::ExactEstimator exact(*corner.chars, kSignalProbability,
                                       core::CorrelationMode::kAnalytic);
      const auto t0 = Clock::now();
      (void)exact.estimate(*s.placements[d], exact_options());
      const double first = ms_since(t0);
      const auto t1 = Clock::now();
      (void)exact.estimate(*s.placements[d], exact_options());
      pairgrid_ms += first - ms_since(t1);
      std::set<std::size_t> types;
      for (const auto& g : s.designs[d].netlist->gates()) types.insert(g.cell_index);
      type_pairs += static_cast<double>(types.size() * types.size());
    }
  }
  rep.set("core.exact_pairgrid_ms", pairgrid_ms / static_cast<double>(steps_per_pass));
  rep.set("core.exact_type_pairs", type_pairs);
  rep.detail("core.exact_type_pairs", "sum of T^2 over the corner x design steps of one pass");

  std::size_t calls_total = 0;
  double leakage_us = 0.0;
  for (const Corner& c : s.corners) {
    const LeakageProbe probe = probe_leakage(c);
    calls_total += probe.calls;
    leakage_us += probe.leakage_us / static_cast<double>(s.corners.size());
  }
  std::map<std::string, double> self_ms;
  attribute_setup(rep, setup_trace, leakage_us, calls_total, s.corners.size(), self_ms);
  const double setup_ms = 1e3 * walls.traced_s;
  for (const auto& [layer, ms] : unit_trace.self_ms_by_layer()) self_ms[layer] += ms;
  emit_layers(rep, self_ms, setup_ms + traced_pass_ms);
  rep.set("trace_overhead_ms",
          (setup_ms + traced_pass_ms) - (1e3 * median(walls.untraced_s) + typical_pass_ms));
  return rep;
}

}  // namespace perfbench
