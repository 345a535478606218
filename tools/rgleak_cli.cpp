// rgleak — command-line front end to the library: characterize a process
// corner, estimate early (design characteristics) or late (a netlist), run
// the Monte-Carlo reference, and run batches. usage_exit lists the commands.
//
// The library ships the virtual 90 nm cell set; the characterization file
// pins the process corner. The command line is read as a job: `--a-b VALUE`
// is parameter `a_b` (`--time-budget` is `time_budget_s`), checked by the
// same service::Params reader and builders as the batch's jobs
// (service/params.h), so the CLI keeps only orchestration and printing. A
// flag that the command does not read is refused like a bad value.

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cells/library.h"
#include "cells/spice_writer.h"
#include "charlib/characterize.h"
#include "core/corner_analysis.h"
#include "core/cost_model.h"
#include "charlib/io.h"
#include "charlib/liberty_writer.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
#include "core/sensitivity.h"
#include "core/yield.h"
#include "mc/full_chip_mc.h"
#include "netlist/io.h"
#include "netlist/random_circuit.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "service/params.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/run_control.h"
#include "util/table.h"
#include "util/trace.h"

using namespace rgleak;
using service::Params;
using service::Range;

namespace {

// Process-wide run control: commands that support cooperative cancellation
// arm it (--time-budget) and install handle_signal so Ctrl-C drains cleanly
// (checkpoint, exit code 6) instead of killing the process mid-write.
util::RunControl g_run;

extern "C" void handle_signal(int) { g_run.request_stop(util::StopReason::kCancelled); }

[[noreturn]] void usage_exit(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage:\n"
               "  rgleak characterize --out FILE [--mode analytic|mc] [--samples N]\n"
               "                      [--mean-l NM] [--sigma-d2d NM] [--sigma-wid NM]\n"
               "                      [--sigma-vt V] [--corr-scale-um UM]\n"
               "                      [--corr exponential|gaussian|linear|spherical]\n"
               "  rgleak estimate --lib FILE --gates N --die-um WxH --usage SPEC\n"
               "                  [--method auto|linear|rect|polar] [--p VALUE|max]\n"
               "                  [--time-budget SECONDS] [--budget-ua X] [--quantile Q]\n"
               "  rgleak netlist --lib FILE --netlist FILE [--p VALUE] [--exact 1|0]\n"
               "                 [--exact-method auto|direct|fft] [--threads N]\n"
               "                 [--time-budget SECONDS] [--cost-model BENCH.json]\n"
               "  rgleak mc --lib FILE --netlist FILE [--trials N] [--seed S]\n"
               "            [--threads N] [--p VALUE] [--resample]\n"
               "            [--checkpoint FILE] [--checkpoint-every N] [--resume FILE]\n"
               "            [--time-budget SECONDS]\n"
               "  rgleak batch --manifest JOBS.jsonl [--journal FILE] [--workers N]\n"
               "               [--max-retries N] [--backoff MS] [--backoff-cap MS]\n"
               "               [--retry-budget N] [--queue-depth N]\n"
               "               [--shed-policy block|reject-new|drop-oldest]\n"
               "               [--job-deadline SECONDS] [--stall-timeout SECONDS]\n"
               "               [--mem-budget auto|none|SIZE]\n"
               "               [--jitter-seed S] [--isolate in-process|process]\n"
               "               [--isolate-grace SECONDS]\n"
               "  rgleak gen-netlist --out FILE --gates N --usage SPEC [--seed S]\n"
               "  rgleak sweep --lib FILE --usage SPEC --die-um WxH\n"
               "               --gates-from N --gates-to N [--steps K]\n"
               "  rgleak liberty --lib FILE --out FILE.lib\n"
               "  rgleak spice --out FILE.sp\n"
               "  rgleak corners --lib FILE --usage SPEC --gates N\n"
               "  rgleak sensitivity --lib FILE --usage SPEC --gates N\n"
               "\n"
               "usage SPEC: comma-separated cell:weight pairs, e.g. INV_X1:0.4,NAND2_X1:0.6\n"
               "flags:        --a-b is the batch jobs' parameter a_b, --time-budget their\n"
               "              time_budget_s (defaults, ranges: src/service/params.h);\n"
               "              counts accept 1e3, seeds are integers >= 0, and --exact 0\n"
               "              skips the exact analysis unless --exact-method is given;\n"
               "              a flag the command does not read is a usage error\n"
               "global flags: --error-json (one-line JSON error reports on stderr)\n"
               "              --trace FILE (append one JSONL span per phase/attempt;\n"
               "              sandboxed children inherit it via RGLEAK_TRACE)\n"
               "              --metrics-json FILE (dump the metrics registry snapshot\n"
               "              at exit)\n"
               "              --progress (mc/batch: one status line per second on\n"
               "              stderr: done/failed/retrying/queue/trials-per-s)\n"
               "              --failpoint SITE:ACTION[:COUNT[:DELAY_MS]] or\n"
               "              SITE:exit:CODE[:COUNT] (repeatable; ACTION is throw, nan,\n"
               "              delay, alloc, abort, segv, or exit — fault injection; abort/\n"
               "              segv/exit kill the process and are meant for sandboxed\n"
               "              children under --isolate=process)\n"
               "isolate:      process = fork one rlimited child per job attempt; a\n"
               "              crashing job becomes a journaled failure (exit code 9 class)\n"
               "              instead of killing the batch. Default in-process, or the\n"
               "              RGLEAK_ISOLATE=process environment override.\n"
               "mem-budget SIZE: bytes with an optional k/m/g suffix, e.g. 512m;\n"
               "              auto = detect from cgroup / RLIMIT_AS, none = unlimited;\n"
               "              each job runs the best rung whose arenas fit, MC with\n"
               "              halved workers\n"
               "cost-model BENCH.json: bench_scaling --exact-json records that calibrate\n"
               "              the time laws; each record needs method, sites and wall_ms\n"
               "exit codes: 0 ok, 1 internal, 2 usage/config, 3 parse, 4 numerical, 5 io,\n"
               "            6 deadline/cancelled (SIGINT or --time-budget expiry),\n"
               "            7 batch completed but some jobs failed or were shed,\n"
               "            8 resource (memory budget exceeded or allocation failed),\n"
               "            9 crash (a sandboxed job child died on a signal)\n");
  std::exit(2);
}

// Flags that take no value; present means "1".
bool is_boolean_flag(const std::string& key) {
  return key == "error_json" || key == "resample" || key == "progress";
}

// The command line as a job of kind `argv[1]`: `--a-b VALUE` becomes
// parameter `a_b`, and `--time-budget` the jobs' `time_budget_s`.
service::JobSpec parse_flags(int argc, char** argv) {
  service::JobSpec spec;
  spec.kind = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_exit(("unexpected argument: " + arg).c_str());
    std::string key = arg.substr(2);
    std::replace(key.begin(), key.end(), '-', '_');
    if (key == "time_budget") key = "time_budget_s";
    if (is_boolean_flag(key)) {
      spec.params[key] = std::string("1");  // not `= "1"`: a false -Wrestrict in GCC 12 -O3
      continue;
    }
    if (i + 1 >= argc) usage_exit(("missing value for " + arg).c_str());
    const std::string value = argv[++i];
    std::string& slot = spec.params[key];
    // --failpoint is repeatable: the specs accumulate, newline-separated.
    slot = key == "failpoint" && !slot.empty() ? slot + '\n' + value : value;
  }
  return spec;
}

// --progress: a background thread that prints one status line per second on
// stderr, fed entirely from the metrics registry (the same counters --trace
// and --metrics-json see). Construction is a no-op when disabled.
class ProgressPrinter {
 public:
  explicit ProgressPrinter(bool enabled) {
    if (enabled) thread_ = std::thread([this] { loop(); });
  }
  ~ProgressPrinter() {
    if (!thread_.joinable()) return;
    {
      std::lock_guard<std::mutex> lock(m_);
      quit_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  ProgressPrinter(const ProgressPrinter&) = delete;
  ProgressPrinter& operator=(const ProgressPrinter&) = delete;

 private:
  void loop() {
    auto& reg = util::metrics::Registry::instance();
    util::metrics::Counter& done = reg.counter("batch.jobs.succeeded");
    util::metrics::Counter& failed = reg.counter("batch.jobs.failed");
    util::metrics::Counter& retried = reg.counter("batch.jobs.retried");
    util::metrics::Gauge& queue = reg.gauge("batch.queue.depth");
    util::metrics::Counter& trials = reg.counter("mc.trials");
    std::uint64_t last_trials = trials.value();
    auto last = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(m_);
    while (!quit_) {
      if (cv_.wait_for(lock, std::chrono::seconds(1), [&] { return quit_; })) return;
      const auto now = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(now - last).count();
      const std::uint64_t t = trials.value();
      const double tps = dt > 0.0 ? static_cast<double>(t - last_trials) / dt : 0.0;
      last_trials = t;
      last = now;
      std::fprintf(stderr,
                   "progress: done %llu failed %llu retrying %llu queue %lld mc %.0f trials/s\n",
                   static_cast<unsigned long long>(done.value()),
                   static_cast<unsigned long long>(failed.value()),
                   static_cast<unsigned long long>(retried.value()),
                   static_cast<long long>(queue.value()), tps);
    }
  }

  std::thread thread_;
  std::mutex m_;
  std::condition_variable cv_;
  bool quit_ = false;
};

int cmd_characterize(const Params& p) {
  const std::string out = p.text("out");
  const service::CharacterizeRequest req = service::characterize_request(p);
  p.reject_unread();
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  std::printf("characterizing %zu cells (%s mode)...\n", lib.size(), req.mode);
  // Ctrl-C stops between (cell, state) pairs with exit code 6; the output
  // file is only written on completion, so no partial artifact appears.
  charlib::save_characterization(req.run(lib, &g_run), out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_estimate(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const core::DesignCharacteristics d = service::design_characteristics(p, lib);
  core::EstimatorConfig cfg = service::estimator_config(p);
  // Checked with the rest; printed only when given.
  const double q = p.number("quantile", 0.5, Range::kOpenUnit);
  const double budget_na = p.number("budget_ua", 0.0) * 1000.0;
  const std::string lib_path = p.text("lib");
  p.reject_unread();
  const charlib::CharacterizedLibrary chars = charlib::load_characterization(lib, lib_path);
  cfg.run = &g_run;
  cfg.correlation_mode = core::correlation_mode_for(chars);

  const core::LeakageEstimator estimator(chars, cfg);
  const core::LeakageEstimate e = estimator.estimate(d);
  std::printf("gates        : %zu\n", d.gate_count);
  std::printf("die          : %.1f x %.1f um\n", d.width_nm * 1e-3, d.height_nm * 1e-3);
  std::printf("mean leakage : %.4f uA\n", e.mean_na * 1e-3);
  std::printf("sigma        : %.4f uA  (%.2f%% of mean)\n", e.sigma_na * 1e-3, 100.0 * e.cv());

  const core::LeakageYieldModel yield(e);
  if (p.has("quantile"))
    std::printf("P%.4g leakage: %.4f uA (log-normal model)\n", 100.0 * q,
                yield.quantile(q) * 1e-3);
  if (p.has("budget_ua"))
    std::printf("yield @ %.4g uA: %.4f%%\n", budget_na * 1e-3, 100.0 * yield.yield(budget_na));
  return 0;
}

int cmd_netlist(const Params& p) {
  const service::NetlistRequest req = service::netlist_request(p);
  const std::string lib_path = p.text("lib");
  const std::string netlist_path = p.text("netlist");
  const std::string cost_model = p.text("cost_model", "");
  p.reject_unread();
  // Loaded whenever given, so a bad record fails the run even without a
  // --time-budget to use it.
  const core::CostModel costs = cost_model.empty() ? core::CostModel::defaults()
                                                   : core::CostModel::from_bench_json(cost_model);
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars = charlib::load_characterization(lib, lib_path);
  const netlist::Netlist nl = netlist::load_netlist(lib, netlist_path);
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const netlist::UsageHistogram usage = netlist::extract_usage(nl);

  const core::CorrelationMode mode = core::correlation_mode_for(chars);
  const core::RandomGate rg(chars, usage, req.signal_probability, mode);
  const core::LeakageEstimate est = core::estimate_linear(rg, fp, &g_run);
  std::printf("netlist      : %s (%zu gates)\n", nl.name().c_str(), nl.size());
  std::printf("RG estimate  : mean %.4f uA, sigma %.4f uA\n", est.mean_na * 1e-3,
              est.sigma_na * 1e-3);

  const placement::Placement pl(&nl, fp);
  const core::ExactEstimator exact(chars, req.signal_probability, mode);
  if (req.exact) {
    core::ExactOptions opts = req.exact_options;
    opts.run = &g_run;
    const core::LeakageEstimate truth = exact.estimate(pl, opts);
    std::printf("exact (%s) : mean %.4f uA, sigma %.4f uA\n", req.exact_method,
                truth.mean_na * 1e-3, truth.sigma_na * 1e-3);
    std::printf("sigma error  : %.4f%%\n",
                100.0 * std::abs(est.sigma_na - truth.sigma_na) / truth.sigma_na);
  }

  if (req.time_budget_s > 0.0) {
    // Budgeted ladder: exact -> linear -> integral, degrading whenever the
    // cost model predicts the next rung would blow the remaining budget.
    const core::LeakageEstimate e = core::estimate_placed_budgeted(
        exact, rg, pl, req.time_budget_s, costs, req.exact_options, &g_run);
    std::printf("budgeted (%.3gs): mean %.4f uA, sigma %.4f uA [method %s]\n", req.time_budget_s,
                e.mean_na * 1e-3, e.sigma_na * 1e-3, e.method.c_str());
    if (!e.degradation.empty()) std::printf("degraded     : %s\n", e.degradation.c_str());
  }
  return 0;
}

int cmd_mc(const Params& p) {
  // Every flag is checked before the files load, so a malformed one is a
  // usage error (exit 2) even when --lib points at a missing file. SIGINT/
  // SIGTERM request a cooperative stop (installed in main); a time budget
  // arms the same control. Either way the engine drains within one trial per
  // worker, writes a final checkpoint when --checkpoint is set, and exits
  // with code 6.
  mc::FullChipMcOptions opts = service::mc_options(p);
  opts.checkpoint_path = p.text("checkpoint", "");
  opts.checkpoint_every = p.count("checkpoint_every", 0);
  opts.resume_path = p.text("resume", "");
  opts.run = &g_run;
  const double budget_s = p.number("time_budget_s", 0.0, Range::kPositive);
  const std::string lib_path = p.text("lib");
  const std::string netlist_path = p.text("netlist");
  p.reject_unread();
  if (budget_s > 0.0) g_run.arm_budget(budget_s);
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars = charlib::load_characterization(lib, lib_path);
  const netlist::Netlist nl = netlist::load_netlist(lib, netlist_path);
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const placement::Placement pl(&nl, fp);

  mc::FullChipMonteCarlo engine(pl, chars, opts);
  mc::FullChipMcResult r;
  const ProgressPrinter progress(p.has("progress"));
  try {
    const util::trace::Span span("mc.run");
    r = engine.run();
  } catch (const DeadlineExceeded&) {
    if (!opts.checkpoint_path.empty())
      std::fprintf(stderr, "checkpoint written to %s (continue with --resume %s)\n",
                   opts.checkpoint_path.c_str(), opts.checkpoint_path.c_str());
    throw;
  }
  std::printf("netlist      : %s (%zu gates)\n", nl.name().c_str(), nl.size());
  std::printf("trials       : %zu\n", r.trials);
  std::printf("MC mean      : %.4f uA\n", r.mean_na * 1e-3);
  std::printf("MC sigma     : %.4f uA  (%.2f%% of mean)\n", r.sigma_na * 1e-3,
              100.0 * r.sigma_na / r.mean_na);
  std::printf("P50/P90/P99  : %.4f / %.4f / %.4f uA\n", r.p50_na * 1e-3, r.p90_na * 1e-3,
              r.p99_na * 1e-3);
  std::printf("embedding    : %zux%zu (exact bias: mean %+.2e, sigma %+.2e)\n",
              r.embedding.padded_rows, r.embedding.padded_cols, r.embedding.mean_bias,
              r.embedding.sigma_bias);
  return 0;
}

// The flag default stays kDefault (not kInProcess) so the RGLEAK_ISOLATE
// environment override can force sandboxing through an unmodified command
// line (how CI runs the existing matrix sandboxed).
constexpr service::Choice<service::ExecIsolation> kIsolation[] = {
    {"default", service::ExecIsolation::kDefault},
    {"in-process", service::ExecIsolation::kInProcess},
    {"process", service::ExecIsolation::kProcess},
};

int cmd_batch(const Params& p) {
  service::BatchOptions opts;
  opts.retry.max_attempts = 1 + static_cast<int>(p.count("max_retries", 2, 0, INT_MAX - 1));
  opts.retry.backoff.base_ms = p.number("backoff", 50.0, Range::kNonNegative);
  opts.retry.backoff.cap_ms = p.number("backoff_cap", 5000.0, Range::kNonNegative);
  if (opts.retry.backoff.cap_ms < opts.retry.backoff.base_ms)
    p.fail("backoff_cap", "must be >= backoff");
  opts.retry.batch_retry_budget = p.count("retry_budget", opts.retry.batch_retry_budget);
  opts.queue_depth = p.count("queue_depth", 32, 1);
  opts.shed_policy = p.parse("shed_policy", "block", service::parse_shed_policy);
  opts.workers = p.threads("workers", 0);
  opts.job_deadline_s = p.number("job_deadline", 0.0, Range::kPositive);
  opts.stall_timeout_s = p.number("stall_timeout", 0.0, Range::kPositive);
  opts.jitter_seed = p.seed("jitter_seed", 24029);
  opts.run = &g_run;
  opts.isolate = p.pick("isolate", "default", kIsolation).value;
  opts.isolate_grace_s = p.number("isolate_grace", opts.isolate_grace_s, Range::kNonNegative);
  // Memory governance: the per-job admission budget (predictive) and the
  // process-wide reservation limit (enforcing) are set to the same ceiling.
  const std::uint64_t mem_budget =
      p.parse("mem_budget", "auto", [](const std::string& spec) -> std::uint64_t {
        if (spec == "auto") return util::detect_memory_limit();
        return spec == "none" ? 0 : util::parse_memory_size(spec);
      });
  const std::string manifest = p.text("manifest");
  const std::string journal_path = p.text("journal", "");
  p.reject_unread();

  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const std::vector<service::JobSpec> jobs = service::load_manifest(manifest);
  service::Journal journal = service::Journal::open(journal_path);
  util::MemoryBudget::process().set_limit(mem_budget);

  service::JobRunner runner(lib);
  runner.set_mem_budget(mem_budget);
  const service::BatchSummary s = [&] {
    // Scoped so the printer joins (and stops writing to stderr) before the
    // summary block below.
    const ProgressPrinter progress(p.has("progress"));
    return service::run_batch(jobs, runner, journal, opts);
  }();
  if (mem_budget > 0)
    std::printf("mem budget   : %llu bytes (peak charged %llu bytes)\n",
                static_cast<unsigned long long>(mem_budget),
                static_cast<unsigned long long>(util::MemoryBudget::process().peak()));

  std::printf("jobs         : %zu", s.total);
  if (s.skipped > 0) std::printf("  (%zu already done, skipped)", s.skipped);
  std::printf("\n");
  std::printf("succeeded    : %zu\n", s.succeeded);
  std::printf("failed       : %zu\n", s.failed);
  if (s.shed > 0) std::printf("shed         : %zu (policy %s)\n", s.shed,
                              service::shed_policy_name(opts.shed_policy));
  if (s.retries > 0) std::printf("retries      : %zu\n", s.retries);
  if (s.stalls > 0) std::printf("stalls       : %zu (cancelled by the stall watchdog)\n", s.stalls);
  if (s.crashes > 0)
    std::printf("crashes      : %zu (sandboxed child deaths, contained)\n", s.crashes);
  std::printf("queue depth  : %zu peak of %zu\n", s.queue_high_watermark, opts.queue_depth);
  if (s.journal_write_failures > 0)
    std::fprintf(stderr, "warning: %zu journal writes failed (records kept in memory)\n",
                 s.journal_write_failures);
  // Exit over the manifest's *terminal* outcomes, this run or a previous one
  // (a resume that skips failed jobs must not report success).
  std::size_t terminal_failures = 0;
  const auto records = journal.records();
  for (const service::JobSpec& job : jobs) {
    const auto it = records.find(job.id);
    if (it == records.end() || it->second.status == service::JobStatus::kSucceeded) continue;
    ++terminal_failures;
    std::fprintf(stderr, "%s\n", service::journal_record_json(it->second).c_str());
  }
  if (s.stopped) {
    std::fprintf(stderr, "batch stopped; %zu jobs unfinished", s.interrupted);
    if (!journal.path().empty())
      std::fprintf(stderr, " (re-run with the same --journal to resume)");
    std::fprintf(stderr, "\n");
    return 6;
  }
  return terminal_failures > 0 ? 7 : 0;
}

int cmd_gen_netlist(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const std::string out = p.text("out");
  const std::size_t n = p.count("gates", std::nullopt, 1);
  const netlist::UsageHistogram usage = service::usage_histogram(p, lib);
  math::Rng rng(p.seed("seed", 1));
  p.reject_unread();
  const netlist::Netlist nl =
      netlist::generate_random_circuit(lib, usage, n, rng, netlist::UsageMatch::kExact,
                                       "generated");
  netlist::save_netlist(nl, out);
  std::printf("wrote %s (%zu gates)\n", out.c_str(), nl.size());
  return 0;
}

int cmd_sweep(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const netlist::UsageHistogram usage = service::usage_histogram(p, lib);
  const auto [w_nm, h_nm] = service::die_nm(p);
  const std::size_t from = p.count("gates_from", std::nullopt, 1);
  const std::size_t to = p.count("gates_to", std::nullopt, from);
  const std::size_t steps = p.count("steps", 8, 2);
  const std::string lib_path = p.text("lib");
  p.reject_unread();
  const charlib::CharacterizedLibrary chars = charlib::load_characterization(lib, lib_path);

  core::EstimatorConfig cfg;
  cfg.run = &g_run;
  cfg.maximize_signal_probability = false;
  cfg.correlation_mode = core::correlation_mode_for(chars);
  const core::LeakageEstimator estimator(chars, cfg);

  util::Table t({"gates", "mean (uA)", "sigma (uA)", "sigma/mean %", "P99 (uA)"});
  for (std::size_t i = 0; i < steps; ++i) {
    // Geometric spacing.
    const double f = static_cast<double>(i) / static_cast<double>(steps - 1);
    const auto gates = static_cast<std::size_t>(
        std::round(from * std::pow(static_cast<double>(to) / from, f)));
    core::DesignCharacteristics d;
    d.usage = usage;
    d.gate_count = gates;
    d.width_nm = w_nm;
    d.height_nm = h_nm;
    const core::LeakageEstimate e = estimator.estimate(d);
    const core::LeakageYieldModel yield(e);
    t.row()
        .cell(static_cast<long long>(gates))
        .cell(e.mean_na * 1e-3, 5)
        .cell(e.sigma_na * 1e-3, 5)
        .cell(100.0 * e.cv(), 4)
        .cell(yield.quantile(0.99) * 1e-3, 5);
  }
  t.print(std::cout);
  return 0;
}

int cmd_liberty(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const std::string out = p.text("out");
  const std::string lib_path = p.text("lib");
  p.reject_unread();
  charlib::write_liberty(charlib::load_characterization(lib, lib_path), out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

int cmd_spice(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const std::string out = p.text("out");
  p.reject_unread();
  cells::write_spice_library(lib, out);
  std::printf("wrote %s (%zu subcircuits)\n", out.c_str(), lib.size());
  return 0;
}

int cmd_corners(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const netlist::UsageHistogram usage = service::usage_histogram(p, lib);
  const std::size_t gates = p.count("gates", std::nullopt, 1);
  const std::string lib_path = p.text("lib");
  p.reject_unread();
  const charlib::CharacterizedLibrary chars = charlib::load_characterization(lib, lib_path);
  const auto corners =
      core::standard_corners(chars.process().length().sigma_d2d_nm);
  const auto results =
      core::analyze_corners(lib.tech(), chars.process(), usage, gates, corners);
  util::Table t({"corner", "mean (uA)", "sigma (uA)", "mean+3sigma (uA)"});
  for (const auto& r : results)
    t.row()
        .cell(r.corner.name)
        .cell(r.estimate.mean_na * 1e-3, 5)
        .cell(r.estimate.sigma_na * 1e-3, 5)
        .cell((r.estimate.mean_na + 3 * r.estimate.sigma_na) * 1e-3, 5);
  t.print(std::cout);
  std::printf("worst corner: %s\n", core::worst_corner(results).corner.name.c_str());
  return 0;
}

int cmd_sensitivity(const Params& p) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const netlist::UsageHistogram usage = service::usage_histogram(p, lib);
  const std::size_t gates = p.count("gates", std::nullopt, 1);
  const std::string lib_path = p.text("lib");
  p.reject_unread();
  const charlib::CharacterizedLibrary chars = charlib::load_characterization(lib, lib_path);
  const auto entries = core::process_sensitivities(lib, chars.process(), usage, gates);
  util::Table t({"knob", "base value", "dln(mean)/dln(x)", "dln(sigma)/dln(x)"});
  for (const auto& e : entries)
    t.row().cell(e.parameter).cell(e.base_value, 5).cell(e.mean_elasticity, 4).cell(
        e.sigma_elasticity, 4);
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage_exit();
  const std::string cmd = argv[1];
  // Detected before flag parsing so even parse-time failures honor it.
  bool json_errors = false;
  for (int i = 2; i < argc; ++i)
    if (std::string(argv[i]) == "--error-json") json_errors = true;
  // Crash hygiene of last resort: an exception that escapes the catch block
  // below (throwing destructor mid-unwind, detached thread, noexcept
  // violation) still produces the structured error record and a typed exit
  // code instead of a bare abort.
  install_terminate_handler(json_errors);
  // Every long-running command drains through g_run on Ctrl-C / SIGTERM and
  // exits with code 6, leaving artifacts (checkpoints, journals) intact.
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // rc instead of direct returns so the --metrics-json dump below runs on
  // every path, success and typed failure alike.
  int rc = 0;
  std::string metrics_json_path;
  try {
    const service::JobSpec spec = parse_flags(argc, argv);
    const Params p(spec);
    // ConfigError (exit 2) on an unknown action or malformed spec — a typo'd
    // spec that silently never fired would make a robustness run vacuous.
    util::Failpoints::arm_specs(p.text("failpoint", ""));
    // Armed before dispatch so every phase span of the command lands in the
    // file; sandboxed job children inherit the O_APPEND fd across fork and
    // append to the same file (atomic single-write lines, no interleaving).
    if (p.has("trace")) util::trace::open(p.text("trace"));
    metrics_json_path = p.text("metrics_json", "");
    // The other global flags every command accepts: --error-json was honored
    // above, and --progress draws only for the commands that report it.
    for (const char* global : {"error_json", "progress"}) (void)p.has(global);
    rc = [&]() -> int {
      if (cmd == "characterize") return cmd_characterize(p);
      if (cmd == "estimate") return cmd_estimate(p);
      if (cmd == "netlist") return cmd_netlist(p);
      if (cmd == "mc") return cmd_mc(p);
      if (cmd == "batch") return cmd_batch(p);
      if (cmd == "gen-netlist") return cmd_gen_netlist(p);
      if (cmd == "sweep") return cmd_sweep(p);
      if (cmd == "liberty") return cmd_liberty(p);
      if (cmd == "spice") return cmd_spice(p);
      if (cmd == "corners") return cmd_corners(p);
      if (cmd == "sensitivity") return cmd_sensitivity(p);
      usage_exit(("unknown command: " + cmd).c_str());
    }();
  } catch (...) {
    // Exit-code contract: 1 = internal bug, 2 = usage/config, 3 = parse,
    // 4 = numerical, 5 = io, 8 = resource.
    rc = report_current_exception(json_errors);
  }
  if (!metrics_json_path.empty()) {
    // Best effort: a failed observability dump must not change the command's
    // exit code (the run itself already succeeded or failed on its own terms).
    try {
      util::atomic_write_file(metrics_json_path, [](std::ostream& os) {
        os << util::metrics::Registry::instance().snapshot_json() << "\n";
      });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "warning: failed to write --metrics-json %s: %s\n",
                   metrics_json_path.c_str(), e.what());
    }
  }
  return rc;
}
