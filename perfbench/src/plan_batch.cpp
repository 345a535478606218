// plan-batch: one `rgleak batch` run of a generated early-planning manifest of
// `estimate` jobs through the production JobRunner, a file-backed journal and
// 3 workers. The journal's per-record rewrite, the many-type RandomGate
// builds and the rectangular integral carry the weight here; no FFT and no
// Monte-Carlo runs.

#include <map>
#include <mutex>
#include <sstream>

#include "charlib/io.h"
#include "checks.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "setup.h"
#include "util/format.h"
#include "workloads.h"

namespace perfbench {

using namespace rgleak;

namespace {

// Every job's latency is its median over at least kMinBatches batches, so a
// slow spell of the machine during one batch does not move the result.
constexpr std::size_t kMinBatches = 8;
constexpr std::size_t kMinBeyondTail = 10;

/// Times the production executor's execute() per job (summed over a job's
/// attempts) and keeps each answer, so the journal can be checked against
/// what the executor returned.
class TimingExecutor : public service::Executor {
 public:
  explicit TimingExecutor(service::Executor& inner) : inner_(inner) {}

  service::JobOutput execute(const service::JobSpec& job, const util::RunControl* watchdog,
                             int degrade) override {
    const auto t0 = Clock::now();
    service::JobOutput out = inner_.execute(job, watchdog, degrade);
    const double ms = ms_since(t0);
    std::lock_guard<std::mutex> lock(mutex_);
    latency_ms_[job.id] += ms;
    outputs_[job.id] = out;
    return out;
  }

  const std::map<std::string, double>& latency_ms() const { return latency_ms_; }
  const service::JobOutput* output(const std::string& id) const {
    const auto it = outputs_.find(id);
    return it == outputs_.end() ? nullptr : &it->second;
  }

 private:
  service::Executor& inner_;
  std::mutex mutex_;
  std::map<std::string, double> latency_ms_;
  std::map<std::string, service::JobOutput> outputs_;
};

struct PlanSetup {
  Corner corner;
  std::vector<PlanJob> jobs;
};

struct BatchRun {
  double wall_ms = 0.0;
  std::map<std::string, double> latency_ms;  ///< per job id
  std::size_t retries = 0;
  std::vector<service::JobRecord> records;
};

// One batch in a fresh directory: the characterized library and the manifest
// are written there, the journal starts empty.
BatchRun batch_run(const Options& o, const PlanSetup& s, Report& rep, Tracer& tracer) {
  const std::string dir = fresh_dir(o.workdir, "plan-batch");
  const std::string lib_path = dir + "/lib.rgchar";
  charlib::save_characterization(*s.corner.chars, lib_path);
  std::vector<std::string> lines;
  for (const PlanJob& job : s.jobs) lines.push_back(manifest_line(job, lib_path));
  write_lines(dir + "/manifest.jsonl", lines);
  const std::vector<service::JobSpec> specs = service::load_manifest(dir + "/manifest.jsonl");
  const std::string journal_path = dir + "/journal.jsonl";

  service::JobRunner runner(*s.corner.library);
  TimingExecutor executor(runner);
  service::BatchOptions opts;
  opts.workers = kThreads;
  opts.isolate = service::ExecIsolation::kInProcess;
  service::BatchSummary summary;
  BatchRun out;
  const auto t0 = Clock::now();
  {
    const auto span = tracer.span("service.batch", "service");
    service::Journal journal = service::Journal::open(journal_path);
    summary = service::run_batch(specs, executor, journal, opts);
  }
  out.wall_ms = ms_since(t0);
  out.latency_ms = executor.latency_ms();
  out.retries = summary.retries;

  const std::map<std::string, service::JobRecord> journal =
      service::Journal::open(journal_path).records();
  for (const service::JobSpec& spec : specs) {
    std::string why;
    rep.check(check_job(spec.id, executor.output(spec.id), journal, &why), why);
  }
  for (const auto& [id, rec] : journal) out.records.push_back(rec);
  remove_tree(dir);
  return out;
}

netlist::UsageHistogram parse_usage(const cells::StdCellLibrary& lib, const std::string& spec) {
  netlist::UsageHistogram u;
  u.alphas.assign(lib.size(), 0.0);
  std::istringstream ss(spec);
  std::string item;
  double total = 0.0;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    double w = 0.0;
    util::parse_double(item.substr(colon + 1), w);
    u.alphas[lib.index_of(item.substr(0, colon))] += w;
    total += w;
  }
  for (double& a : u.alphas) a /= total;
  return u;
}

/// Per-call core costs of the manifest, replayed serially: the RandomGate
/// build and the estimator rung each job resolves to.
struct CoreReplay {
  std::vector<double> random_gate_ms, linear_ms, rect_ms, polar_ms;
  std::size_t polar_requests = 0, polar_fallbacks = 0;
  double total_ms = 0.0;
};

CoreReplay replay_core(const PlanSetup& s) {
  CoreReplay r;
  const cells::StdCellLibrary& lib = *s.corner.library;
  for (const PlanJob& job : s.jobs) {
    core::EstimatorConfig cfg;
    cfg.maximize_signal_probability = job.p_max;
    cfg.signal_probability = 0.5;
    const core::LeakageEstimator estimator(*s.corner.chars, cfg);
    core::DesignCharacteristics d;
    d.usage = parse_usage(lib, job.usage);
    d.gate_count = job.gates;
    const auto x = job.die_um.find('x');
    util::parse_double(job.die_um.substr(0, x), d.width_nm);
    util::parse_double(job.die_um.substr(x + 1), d.height_nm);
    d.width_nm *= 1000.0;
    d.height_nm *= 1000.0;
    const placement::Floorplan fp = core::floorplan_for_design(d);

    auto t0 = Clock::now();
    const core::RandomGate rg = estimator.make_random_gate(d.usage);
    const double rg_ms = ms_since(t0);
    r.random_gate_ms.push_back(rg_ms);
    std::string rung = job.method;
    if (rung == "auto") rung = job.gates <= 10000 ? "linear" : "polar";
    t0 = Clock::now();
    std::vector<double>* bucket = &r.rect_ms;
    if (rung == "linear") {
      (void)core::estimate_linear(rg, fp);
      bucket = &r.linear_ms;
    } else if (rung == "rect") {
      (void)core::estimate_integral_rect(rg, fp);
    } else {
      bool used_polar = false;
      (void)core::estimate_integral_polar(rg, fp, {}, &used_polar);
      ++r.polar_requests;
      if (used_polar) bucket = &r.polar_ms;
      else ++r.polar_fallbacks;
    }
    const double rung_ms = ms_since(t0);
    bucket->push_back(rung_ms);
    r.total_ms += rg_ms + rung_ms;
  }
  return r;
}

double mean_of(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

}  // namespace

Report run_plan_batch(const Options& o) {
  Report rep;
  Tracer setup_trace(o.trace);
  SetupWalls walls;
  const PlanSetup s = run_setups(o, setup_trace, walls, [&](Tracer& tr) {
    PlanSetup p;
    p.corner = make_corner("bench", 0.0, std::nullopt, tr);
    const std::string dir = fresh_dir(o.workdir, "plan-setup");
    charlib::save_characterization(*p.corner.chars, dir + "/lib.rgchar");
    p.jobs = make_plan_jobs(*p.corner.library, o.seed);
    std::vector<std::string> lines;
    for (const PlanJob& job : p.jobs) lines.push_back(manifest_line(job, "lib.rgchar"));
    write_lines(dir + "/manifest.jsonl", lines);
    return p;
  });

  // Every batch is timed; the median over batches and each job's median
  // discard the first batch's cold caches along with any slow spell.
  Tracer off(false);
  std::vector<double> rates;
  std::map<std::string, std::vector<double>> job_ms;  // per job, one latency per batch
  std::size_t retries = 0;
  double timed_s = 0.0;
  while (timed_s < o.seconds || rates.size() < kMinBatches) {
    const BatchRun b = batch_run(o, s, rep, off);
    rates.push_back(1e3 * static_cast<double>(s.jobs.size()) / b.wall_ms);
    for (const auto& [id, ms] : b.latency_ms) job_ms[id].push_back(ms);
    retries += b.retries;
    timed_s += 1e-3 * b.wall_ms;
  }
  std::vector<double> typical_ms;  // each job's median latency over the batches
  for (const auto& [id, ms] : job_ms) typical_ms.push_back(median(ms));
  const Tail tail = highest_tail(typical_ms, kMinBeyondTail);
  rep.detail("op", "one estimate job: JobRunner::execute latency inside run_batch (" +
                       std::to_string(s.jobs.size()) + " jobs per batch, " +
                       std::to_string(kThreads) + " workers, file-backed journal), " +
                       "each job at its median over the " + std::to_string(rates.size()) +
                       " batches");
  std::string per_batch;
  for (double r : rates) per_batch += (per_batch.empty() ? "" : " ") + util::format_double(r, 4);
  rep.detail("jobs_per_s per batch", per_batch);
  rep.detail("jobs_per_s [jobs/s]", median(rates));
  rep.detail("job_p50_ms [ms]", tail.p50);
  rep.detail("job_tail_ms [ms]", tail.value);
  rep.detail("op_tail_percentile", tail.percentile);
  rep.detail("op_samples", static_cast<double>(tail.samples));
  rep.detail("op_samples_beyond_tail", static_cast<double>(tail.beyond));
  rep.detail("retries", static_cast<double>(retries));

  if (!o.trace) {
    rep.set("ops_per_s", median(rates));
    rep.set("op_p50_ms", tail.p50);
    rep.set("op_tail_ms", tail.value);
    rep.set("setup_s", median(walls.untraced_s));
    rep.set("peak_rss_mb", peak_rss_mb());
    return rep;
  }

  // ---- Traced run -------------------------------------------------------
  Tracer unit_trace(true);
  constexpr std::size_t kTracedBatches = 2;
  double execute_ms = 0.0, journal_ms = 0.0;
  std::size_t traced_retries = 0;
  std::uint64_t journal_bytes = 0;
  for (std::size_t i = 0; i < kTracedBatches; ++i) {
    const BatchRun b = batch_run(o, s, rep, unit_trace);
    for (const auto& [id, ms] : b.latency_ms) execute_ms += ms;
    traced_retries += b.retries;
    // Journal replay: the batch's records appended one by one to a fresh
    // file journal, summing the append time and the bytes each rewrite wrote.
    const std::string dir = fresh_dir(o.workdir, "plan-journal");
    {
      service::Journal journal = service::Journal::open(dir + "/journal.jsonl");
      for (const service::JobRecord& rec : b.records) {
        const auto t0 = Clock::now();
        journal.append(rec);
        journal_ms += ms_since(t0);
        journal_bytes += file_bytes(dir + "/journal.jsonl");
      }
    }
    remove_tree(dir);
  }
  const auto n = static_cast<double>(kTracedBatches);
  const double batch_ms = unit_trace.total_ms("service.batch") / n;
  execute_ms /= n;
  journal_ms /= n;
  const auto jobs = static_cast<double>(s.jobs.size());

  const CoreReplay core = replay_core(s);
  rep.set("core.random_gate_ms", mean_of(core.random_gate_ms));
  rep.set("core.linear_ms", mean_of(core.linear_ms));
  rep.set("core.integral_rect_ms", mean_of(core.rect_ms));
  rep.set("core.integral_polar_ms", mean_of(core.polar_ms));
  rep.set("core.polar_fallback_frac", core.polar_requests == 0
                                          ? 0.0
                                          : static_cast<double>(core.polar_fallbacks) /
                                                static_cast<double>(core.polar_requests));
  rep.set("service.execute_ms", execute_ms);
  rep.set("service.self_ms_per_job",
          (static_cast<double>(kThreads) * batch_ms - execute_ms) / jobs);
  rep.set("service.journal_append_ms", journal_ms);
  rep.set("service.journal_bytes", static_cast<double>(journal_bytes) / n);
  rep.set("service.retries", static_cast<double>(traced_retries));
  rep.detail("service.journal_bytes", "measured: file size after each append, summed");
  rep.detail("core_replay_ms (serial)", core.total_ms);

  const LeakageProbe probe = probe_leakage(s.corner);
  std::map<std::string, double> self_ms;
  attribute_setup(rep, setup_trace, probe.leakage_us, probe.calls, 1, self_ms);
  const double setup_ms = 1e3 * walls.traced_s;

  // Per batch: the workers spend sum(execute) + journal appends; the
  // replayed core calls are core time, the rest of execute and the appends
  // are service time, all spread over the workers. Queue waits and worker
  // imbalance stay unattributed.
  const double workers = static_cast<double>(kThreads);
  self_ms["core"] += core.total_ms / workers;
  self_ms["service"] += (execute_ms - core.total_ms + journal_ms) / workers;
  emit_layers(rep, self_ms, setup_ms + batch_ms);
  rep.set("trace_overhead_ms", (setup_ms + batch_ms) -
                                   (1e3 * median(walls.untraced_s) + 1e3 * jobs / median(rates)));
  return rep;
}

}  // namespace perfbench
