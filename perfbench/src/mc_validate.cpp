// mc-validate: the full-chip Monte-Carlo reference on the bench_full_chip_mc
// design, checked against the exact estimate of the same placed design. The
// 256^2 circulant embedding of the 48x48 grid makes the field draw most of a
// trial, so this workload moves with the field sampler, the trial's eval path
// and the threaded checkpoints; no estimator or service code runs in it.

#include <algorithm>
#include <optional>

#include "checks.h"
#include "core/estimators.h"
#include "math/rng.h"
#include "mc/checkpoint.h"
#include "mc/full_chip_mc.h"
#include "netlist/io.h"
#include "process/field_sampler.h"
#include "setup.h"
#include "workloads.h"

namespace perfbench {

using namespace rgleak;

namespace {

constexpr std::size_t kTrials = 500;  // one engine run = `rgleak mc --trials 500`
constexpr double kTailPct = 75.0;
constexpr std::size_t kMinRuns = 40;  // >= 10 runs beyond p75

struct McSetup {
  Corner corner;
  McDesign design;
  std::unique_ptr<placement::Placement> placement;
};

mc::FullChipMcOptions engine_options(std::uint64_t seed, std::size_t run) {
  mc::FullChipMcOptions opts;
  opts.trials = kTrials;
  opts.threads = kThreads;
  opts.resample_states_per_trial = true;
  opts.checkpoint_every = kTrials / 8;
  opts.seed = mix_seed(seed, 100 + run);
  return opts;
}

process::GridFieldSampler make_sampler(const McSetup& s) {
  const placement::Floorplan& fp = s.design.floorplan;
  const process::ProcessVariation& pv = s.corner.chars->process();
  return process::GridFieldSampler(fp.rows, fp.cols, fp.site_w_nm, fp.site_h_nm,
                                   pv.wid_correlation(), pv.length().sigma_wid_nm,
                                   pv.anisotropy());
}

struct EngineRun {
  std::size_t run = 0;
  double wall_ms = 0.0;
  double mean_na = 0.0, sigma_na = 0.0;  ///< as run() reported them
  std::vector<double> samples;            ///< read back from the final checkpoint
};

// One engine run: construction + run(), the user's wall.
EngineRun engine_run(const Options& o, const McSetup& s, std::size_t run, Tracer& tracer) {
  const std::string dir = fresh_dir(o.workdir, "mc-run");
  mc::FullChipMcOptions opts = engine_options(o.seed, run);
  opts.checkpoint_path = dir + "/mc.ckpt";
  EngineRun out;
  out.run = run;
  std::optional<mc::FullChipMonteCarlo> engine;
  mc::FullChipMcResult r;
  const auto t0 = Clock::now();
  {
    const auto span = tracer.span("mc.build", "mc");
    engine.emplace(*s.placement, *s.corner.chars, opts);
  }
  {
    const auto span = tracer.span("mc.run", "mc");
    r = engine->run();
  }
  out.wall_ms = ms_since(t0);
  out.mean_na = r.mean_na;
  out.sigma_na = r.sigma_na;

  const mc::McCheckpoint ckpt = mc::load_mc_checkpoint(opts.checkpoint_path);
  for (const mc::McWorkerState& w : ckpt.workers)
    out.samples.insert(out.samples.end(), w.samples.begin(), w.samples.end());
  remove_tree(dir);
  return out;
}

// Checks every run against the exact estimate; returns the largest error of
// the mean and of sigma, in standard errors.
std::pair<double, double> check_runs(const std::vector<EngineRun>& runs,
                                     const core::LeakageEstimate& exact, double kurtosis,
                                     Report& rep) {
  std::pair<double, double> worst{0.0, 0.0};
  for (const EngineRun& r : runs) {
    const McVerdict v =
        check_mc(r.samples, r.mean_na, r.sigma_na, exact.mean_na, exact.sigma_na, kurtosis);
    rep.check(v.ok && r.samples.size() == kTrials,
              "mc run " + std::to_string(r.run) + ": " + v.why);
    worst.first = std::max(worst.first, v.mean_err_se);
    worst.second = std::max(worst.second, v.sigma_err_se);
  }
  return worst;
}

}  // namespace

Report run_mc_validate(const Options& o) {
  Report rep;
  Tracer setup_trace(o.trace);
  SetupWalls walls;
  const McSetup s = run_setups(o, setup_trace, walls, [&](Tracer& tr) {
    McSetup m;
    m.corner = make_corner("bench", 0.0, std::nullopt, tr);
    {
      const auto span = tr.span("netlist.generate", "netlist");
      m.design = make_mc_design(*m.corner.library, o.seed);
    }
    m.placement = std::make_unique<placement::Placement>(m.design.netlist.get(),
                                                         m.design.floorplan);
    netlist::save_netlist(*m.design.netlist, fresh_dir(o.workdir, "mc-setup") + "/design.rgnl");
    return m;
  });
  const std::size_t gates = s.design.netlist->size();

  // Reference: the exact (FFT) estimate of the same placed design.
  const core::ExactEstimator exact_estimator(*s.corner.chars, 0.5,
                                             core::CorrelationMode::kAnalytic);
  core::ExactOptions eo;
  eo.method = core::ExactMethod::kFft;
  eo.threads = kThreads;
  const core::LeakageEstimate exact = exact_estimator.estimate(*s.placement, eo);
  const process::GridFieldSampler sampler = make_sampler(s);
  rep.detail("exact_mean_na", exact.mean_na);
  rep.detail("exact_sigma_na", exact.sigma_na);
  rep.detail("clamped_eigenvalue_fraction", sampler.clamped_eigenvalue_fraction());
  rep.detail("embedding", std::to_string(sampler.padded_rows()) + "x" +
                              std::to_string(sampler.padded_cols()));

  // Warm-up run (thread pool, page faults), checked but not timed.
  Tracer off(false);
  std::vector<EngineRun> runs{engine_run(o, s, 0, off)};
  std::vector<double> walls_ms, rates;
  double timed_s = 0.0;
  for (std::size_t run = 1; timed_s < o.seconds || walls_ms.size() < kMinRuns; ++run) {
    runs.push_back(engine_run(o, s, run, off));
    walls_ms.push_back(runs.back().wall_ms);
    rates.push_back(1e3 * static_cast<double>(kTrials) / runs.back().wall_ms);
    timed_s += 1e-3 * runs.back().wall_ms;
  }
  std::vector<double> pooled;
  for (const EngineRun& r : runs) pooled.insert(pooled.end(), r.samples.begin(), r.samples.end());
  const double kurtosis = sample_kurtosis(pooled);
  {
    const auto [worst_mean, worst_sigma] = check_runs(runs, exact, kurtosis, rep);
    const auto [mean, sd] = sample_moments(pooled);
    const McVerdict v = check_mc(pooled, mean, sd, exact.mean_na, exact.sigma_na, kurtosis);
    rep.check(v.ok, "pooled mc samples: " + v.why);
    rep.detail("pooled_trials", static_cast<double>(pooled.size()));
    rep.detail("pooled_mean_na", mean);
    rep.detail("pooled_sigma_na", sd);
    rep.detail("pooled_kurtosis", kurtosis);
    rep.detail("pooled_mean_err_se", v.mean_err_se);
    rep.detail("pooled_sigma_err_se", v.sigma_err_se);
    rep.detail("worst_run_mean_err_se", worst_mean);
    rep.detail("worst_run_sigma_err_se", worst_sigma);
  }
  const Tail tail = tail_summary(walls_ms, kTailPct);
  const double trials_per_s = median(rates);
  rep.detail("op", "one engine run: FullChipMonteCarlo construction + run() of " +
                       std::to_string(kTrials) + " trials, " + std::to_string(kThreads) +
                       " threads, checkpoint every " + std::to_string(kTrials / 8));
  rep.detail("mc_trials_per_s [trials/s]", trials_per_s);
  rep.detail("op_tail_percentile", tail.percentile);
  rep.detail("op_samples", static_cast<double>(tail.samples));
  rep.detail("op_samples_beyond_tail", static_cast<double>(tail.beyond));

  if (!o.trace) {
    rep.set("ops_per_s", trials_per_s);
    rep.set("op_p50_ms", tail.p50);
    rep.set("op_tail_ms", tail.value);
    rep.set("setup_s", median(walls.untraced_s));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // ---- Traced run -------------------------------------------------------
  // Traced unit: engine runs with spans around the two public calls.
  Tracer unit_trace(true);
  constexpr std::size_t kTracedRuns = 5;
  std::vector<EngineRun> traced_runs;
  std::vector<double> traced_ms;
  for (std::size_t i = 0; i < kTracedRuns; ++i) {
    traced_runs.push_back(engine_run(o, s, 1000 + i, unit_trace));
    traced_ms.push_back(traced_runs.back().wall_ms);
  }
  (void)check_runs(traced_runs, exact, kurtosis, rep);
  const double unit_ms = unit_trace.root_ms() / kTracedRuns;

  // Replay of the engine's inner calls through their public functions.
  const process::ProcessVariation& pv = s.corner.chars->process();
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const process::GridFieldSampler fresh = make_sampler(s);
    build_ms.push_back(ms_since(t0));
  }
  const double sampler_build_ms = median(build_ms);

  // Per-call costs of a trial, measured in interleaved rounds (median of the
  // round means) so a slow spell of the machine lands on every call alike.
  std::vector<double> field_r, eval_r, trial_r;
  {
    process::GridFieldSampler field = make_sampler(s);
    process::FieldWorkspace ws;
    std::vector<double> wid;
    math::Rng field_rng(mix_seed(o.seed, 7));

    const cells::StdCellLibrary& lib = *s.corner.library;
    const double mu = pv.length().mean_nm;
    const double span = 8.0 * pv.length().sigma_total_nm();
    const charlib::LeakageTable table(lib.cell(lib.index_of("NAND2_X1")), 1, lib.tech(),
                                      std::max(mu - span, 1.0), mu + std::max(span, 1e-3));
    math::Rng eval_rng(mix_seed(o.seed, 8));
    std::vector<double> l(gates), leak(gates);
    for (double& x : l) x = eval_rng.normal(mu, pv.length().sigma_total_nm());

    mc::FullChipMcOptions serial = engine_options(o.seed, 3000);
    serial.threads = 1;
    mc::FullChipMonteCarlo engine(*s.placement, *s.corner.chars, serial);
    math::Rng trial_rng(mix_seed(o.seed, 9));

    field.sample_into(field_rng, ws, wid);
    table.eval_many_na(l.data(), leak.data(), gates);
    (void)engine.sample_total_na(trial_rng);
    constexpr int kRounds = 5;
    constexpr std::size_t kCalls = 100;  // even: FFT draws and cached spares alternate
    for (int round = 0; round < kRounds; ++round) {
      auto t0 = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i) field.sample_into(field_rng, ws, wid);
      field_r.push_back(1e3 * ms_since(t0) / kCalls);
      t0 = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i) table.eval_many_na(l.data(), leak.data(), gates);
      eval_r.push_back(1e6 * ms_since(t0) / static_cast<double>(kCalls * gates));
      t0 = Clock::now();
      for (std::size_t i = 0; i < kCalls; ++i) (void)engine.sample_total_na(trial_rng);
      trial_r.push_back(1e3 * ms_since(t0) / kCalls);
    }
  }
  const double field_us = median(field_r);
  const double eval_ns = median(eval_r);
  const double trial_us = median(trial_r);

  std::vector<double> engine_build_ms;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    const mc::FullChipMonteCarlo e(*s.placement, *s.corner.chars, engine_options(o.seed, 2000));
    engine_build_ms.push_back(ms_since(t0));
  }
  const double self_us = trial_us - field_us - 1e-3 * static_cast<double>(gates) * eval_ns;

  // Checkpoint cadence of one engine run: after each round every worker has
  // grown its slice by checkpoint_every / threads samples.
  double ckpt_ms = 0.0, ckpt_serialize_ms = 0.0;
  std::size_t rounds = 0, ckpt_bytes = 0;
  {
    const mc::FullChipMcOptions opts = engine_options(o.seed, 4000);
    const std::string dir = fresh_dir(o.workdir, "mc-ckpt");
    const std::size_t chunk = std::max<std::size_t>(1, opts.checkpoint_every / kThreads);
    math::Rng rng(mix_seed(o.seed, 10));
    std::vector<std::vector<double>> slices(kThreads);
    const std::vector<double> spare(s.design.floorplan.num_sites(), 0.5);
    mc::McCheckpointWriter writer;
    for (bool done = false; !done; ++rounds) {
      done = true;
      for (std::size_t w = 0; w < kThreads; ++w) {
        const std::size_t target = (w + 1) * kTrials / kThreads - w * kTrials / kThreads;
        for (std::size_t i = 0; i < chunk && slices[w].size() < target; ++i)
          slices[w].push_back(rng.normal(exact.mean_na, exact.sigma_na));
        done = done && slices[w].size() == target;
      }
      const auto t0 = Clock::now();
      writer.begin(opts.seed, kThreads, kTrials, true, opts.table_points, gates, kThreads);
      for (std::size_t w = 0; w < kThreads; ++w) writer.add_worker(rng.state(), &spare, slices[w]);
      ckpt_bytes = writer.finish().size();
      ckpt_serialize_ms += ms_since(t0);
      writer.save(dir + "/replay.ckpt");
      ckpt_ms += ms_since(t0);
    }
    remove_tree(dir);
  }

  rep.set("process.field_us", field_us);
  rep.set("process.sampler_build_ms", sampler_build_ms);
  rep.set("process.embed_points",
          static_cast<double>(sampler.padded_rows() * sampler.padded_cols()));
  rep.set("process.field_bytes",
          static_cast<double>(sampler.workspace_bytes() +
                              sampler.padded_rows() * sampler.padded_cols() * sizeof(double)));
  rep.set("charlib.eval_ns", eval_ns);
  rep.set("mc.build_ms", median(engine_build_ms));
  rep.set("mc.trial_us", trial_us);
  rep.set("mc.self_us", self_us);
  rep.set("mc.checkpoint_ms", ckpt_ms / static_cast<double>(rounds));
  rep.set("mc.checkpoint_bytes", static_cast<double>(ckpt_bytes));
  const double serial_trials_per_s = 1e6 / trial_us;
  rep.set("mc.scaling_eff", trials_per_s / (static_cast<double>(kThreads) * serial_trials_per_s));
  rep.detail("serial_trials_per_s (mc.scaling_eff baseline)", serial_trials_per_s);
  rep.detail("threaded_trials_per_s", trials_per_s);
  rep.detail("process.field_bytes", "computed: FFT workspace + eigenvalue table per worker");
  rep.detail("checkpoints_per_run", static_cast<double>(rounds));
  rep.detail("checkpoint_serialize_ms", ckpt_serialize_ms / static_cast<double>(rounds));

  // Characterization cost.
  const LeakageProbe probe = probe_leakage(s.corner);
  std::map<std::string, double> self_ms;
  attribute_setup(rep, setup_trace, probe.leakage_us, probe.calls, 1, self_ms);
  const double setup_ms = 1e3 * walls.traced_s;

  // Per engine run: the sampler build inside the constructor is process
  // time; each trial splits into field draw (process), gates x table eval
  // (charlib) and the rest (mc), spread over the workers; the checkpoint
  // serialization blocks the round loop (mc). What the per-call costs do not
  // explain (thread start, barriers, state tables) stays unattributed.
  const double build = unit_trace.total_ms("mc.build") / kTracedRuns;
  const double t = static_cast<double>(kTrials) / static_cast<double>(kThreads);
  self_ms["process"] += std::min(build, sampler_build_ms) + 1e-3 * t * field_us;
  self_ms["charlib"] += 1e-6 * t * static_cast<double>(gates) * eval_ns;
  self_ms["mc"] += std::max(build - sampler_build_ms, 0.0) + 1e-3 * t * self_us +
                   ckpt_serialize_ms;
  emit_layers(rep, self_ms, setup_ms + unit_ms);
  rep.set("trace_overhead_ms", (setup_ms + median(traced_ms)) -
                                   (1e3 * median(walls.untraced_s) + tail.p50));
  return rep;
}

}  // namespace perfbench
