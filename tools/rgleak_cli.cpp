// rgleak — command-line front end to the library.
//
//   rgleak characterize --out lib.rgchar [process options]
//   rgleak estimate     --lib lib.rgchar --gates N --die-um WxH
//                       --usage "INV_X1:0.4,NAND2_X1:0.6"
//                       [--method linear|rect|polar] [--p VALUE|max]
//                       [--budget-ua X] [--quantile Q]
//   rgleak netlist      --lib lib.rgchar --netlist file.rgnl --die-um WxH
//                       (late mode: extract characteristics, estimate, and
//                        compare against the exact O(n^2) analysis)
//   rgleak gen-netlist  --out file.rgnl --gates N
//                       --usage "INV_X1:0.5,NAND2_X1:0.5" [--seed S]
//
// The library ships the virtual 90 nm cell set; the characterization file
// pins the process corner.

#include <cerrno>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
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
#include "process/variation.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "util/atomic_file.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/memory.h"
#include "util/metrics.h"
#include "util/run_control.h"
#include "util/table.h"
#include "util/trace.h"

using namespace rgleak;

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
               "  rgleak characterize --out FILE [--mode analytic|mc] [--mean-l NM]\n"
               "                      [--sigma-d2d NM] [--sigma-wid NM] [--sigma-vt V]\n"
               "                      [--corr exponential|gaussian|linear|spherical]\n"
               "                      [--corr-scale-um UM]\n"
               "  rgleak estimate --lib FILE --gates N --die-um WxH --usage SPEC\n"
               "                  [--method auto|linear|rect|polar] [--p VALUE|max]\n"
               "                  [--budget-ua X] [--quantile Q]\n"
               "  rgleak netlist --lib FILE --netlist FILE [--exact 1]\n"
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
               "               [--mem-budget auto|none|SIZE] [--mem-model BENCH.json]\n"
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
               "              auto = detect from cgroup / RLIMIT_AS, none = unlimited\n"
               "cost-model, mem-model BENCH.json: bench_scaling/bench_full_chip_mc records,\n"
               "              one reader; each record needs method, sites and wall_ms\n"
               "exit codes: 0 ok, 1 internal, 2 usage/config, 3 parse, 4 numerical, 5 io,\n"
               "            6 deadline/cancelled (SIGINT or --time-budget expiry),\n"
               "            7 batch completed but some jobs failed or were shed,\n"
               "            8 resource (memory budget exceeded or allocation failed),\n"
               "            9 crash (a sandboxed job child died on a signal)\n");
  std::exit(2);
}

// Flags that take no value; present means "1".
bool is_boolean_flag(const std::string& key) {
  return key == "error-json" || key == "resample" || key == "progress";
}

std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) usage_exit(("unexpected argument: " + key).c_str());
    key = key.substr(2);
    if (is_boolean_flag(key)) {
      flags[key] = "1";
      continue;
    }
    if (key == "failpoint") {
      // Repeatable: accumulate newline-separated specs.
      if (i + 1 >= argc) usage_exit("missing value for --failpoint");
      std::string& specs = flags["failpoint"];
      if (!specs.empty()) specs += '\n';
      specs += argv[++i];
      continue;
    }
    if (i + 1 >= argc) usage_exit(("missing value for --" + key).c_str());
    flags[key] = argv[++i];
  }
  return flags;
}

// Checked numeric parsers: the whole token must convert, no silent atof-style
// "0 on garbage".
double parse_double(const std::string& s, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0')
    usage_exit((what + " expects a number, got: " + s).c_str());
  // strtod happily accepts "nan"/"inf", and NaN slides past every
  // `<= 0.0` range guard downstream — "--time-budget nan" would arm a NaN
  // deadline instead of failing. No flag has a meaningful non-finite value,
  // so reject them all here.
  if (!std::isfinite(v)) usage_exit((what + " expects a finite number, got: " + s).c_str());
  return v;
}

long long parse_int(const std::string& s, const std::string& what) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0')
    usage_exit((what + " expects an integer, got: " + s).c_str());
  return v;
}

std::size_t parse_count(const std::string& s, const std::string& what) {
  const long long v = parse_int(s, what);
  if (v < 0) usage_exit((what + " must be non-negative, got: " + s).c_str());
  return static_cast<std::size_t>(v);
}

std::string flag(const std::map<std::string, std::string>& flags, const std::string& key,
                 const std::string& fallback = "") {
  const auto it = flags.find(key);
  if (it != flags.end()) return it->second;
  if (fallback.empty()) usage_exit(("required flag missing: --" + key).c_str());
  return fallback;
}

bool has_flag(const std::map<std::string, std::string>& flags, const std::string& key) {
  return flags.count(key) > 0;
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

netlist::UsageHistogram parse_usage(const cells::StdCellLibrary& lib, const std::string& spec) {
  netlist::UsageHistogram u;
  u.alphas.assign(lib.size(), 0.0);
  std::istringstream ss(spec);
  std::string item;
  double total = 0.0;
  while (std::getline(ss, item, ',')) {
    const auto colon = item.find(':');
    if (colon == std::string::npos) usage_exit(("bad usage item: " + item).c_str());
    const std::string name = item.substr(0, colon);
    const double w = parse_double(item.substr(colon + 1), "usage weight");
    if (w <= 0.0) usage_exit(("bad usage weight in: " + item).c_str());
    u.alphas[lib.index_of(name)] += w;
    total += w;
  }
  if (total <= 0.0) usage_exit("usage spec is empty");
  for (double& a : u.alphas) a /= total;
  return u;
}

void parse_die(const std::string& spec, double& w_nm, double& h_nm) {
  const auto x = spec.find('x');
  if (x == std::string::npos) usage_exit(("bad --die-um, expected WxH: " + spec).c_str());
  w_nm = parse_double(spec.substr(0, x), "--die-um width") * 1000.0;
  h_nm = parse_double(spec.substr(x + 1), "--die-um height") * 1000.0;
  if (w_nm <= 0.0 || h_nm <= 0.0) usage_exit("die dimensions must be positive");
}

int cmd_characterize(const std::map<std::string, std::string>& flags) {
  const std::string out = flag(flags, "out");
  const std::string mode = flag(flags, "mode", "analytic");

  process::LengthVariation len;
  len.mean_nm = parse_double(flag(flags, "mean-l", "40"), "--mean-l");
  len.sigma_d2d_nm = parse_double(flag(flags, "sigma-d2d", "1.7678"), "--sigma-d2d");
  len.sigma_wid_nm = parse_double(flag(flags, "sigma-wid", "1.7678"), "--sigma-wid");
  process::VtVariation vt;
  vt.sigma_v = parse_double(flag(flags, "sigma-vt", "0.02"), "--sigma-vt");
  const std::string family = flag(flags, "corr", "exponential");
  const double scale_nm = parse_double(flag(flags, "corr-scale-um", "100"), "--corr-scale-um") * 1000.0;
  const process::ProcessVariation process(len, vt,
                                          process::make_correlation(family, scale_nm));

  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  std::printf("characterizing %zu cells (%s mode)...\n", lib.size(), mode.c_str());
  // Ctrl-C stops between (cell, state) pairs with exit code 6; the output
  // file is only written on completion, so no partial artifact appears.
  charlib::CharacterizedLibrary chars = [&] {
    if (mode == "mc") {
      charlib::McCharOptions opts;
      opts.run = &g_run;
      return charlib::characterize_monte_carlo(lib, process, opts);
    }
    charlib::AnalyticCharOptions opts;
    opts.run = &g_run;
    return charlib::characterize_analytic(lib, process, opts);
  }();
  charlib::save_characterization(chars, out);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

core::EstimationMethod parse_method(const std::string& m) {
  if (m == "auto") return core::EstimationMethod::kAuto;
  if (m == "linear") return core::EstimationMethod::kLinear;
  if (m == "rect") return core::EstimationMethod::kIntegralRect;
  if (m == "polar") return core::EstimationMethod::kIntegralPolar;
  usage_exit(("unknown method: " + m).c_str());
}

int cmd_estimate(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));

  core::DesignCharacteristics d;
  d.usage = parse_usage(lib, flag(flags, "usage"));
  d.gate_count = parse_count(flag(flags, "gates"), "--gates");
  parse_die(flag(flags, "die-um"), d.width_nm, d.height_nm);

  core::EstimatorConfig cfg;
  cfg.run = &g_run;
  cfg.method = parse_method(flag(flags, "method", "auto"));
  cfg.correlation_mode = chars.has_models() ? core::CorrelationMode::kAnalytic
                                            : core::CorrelationMode::kSimplified;
  const std::string p = flag(flags, "p", "max");
  if (p == "max") {
    cfg.maximize_signal_probability = true;
  } else {
    cfg.maximize_signal_probability = false;
    cfg.signal_probability = parse_double(p, "--p");
  }

  const core::LeakageEstimator estimator(chars, cfg);
  const core::LeakageEstimate e = estimator.estimate(d);
  std::printf("gates        : %zu\n", d.gate_count);
  std::printf("die          : %.1f x %.1f um\n", d.width_nm * 1e-3, d.height_nm * 1e-3);
  std::printf("mean leakage : %.4f uA\n", e.mean_na * 1e-3);
  std::printf("sigma        : %.4f uA  (%.2f%% of mean)\n", e.sigma_na * 1e-3, 100.0 * e.cv());

  const core::LeakageYieldModel yield(e);
  if (has_flag(flags, "quantile")) {
    const double q = parse_double(flag(flags, "quantile"), "--quantile");
    std::printf("P%.4g leakage: %.4f uA (log-normal model)\n", 100.0 * q,
                yield.quantile(q) * 1e-3);
  }
  if (has_flag(flags, "budget-ua")) {
    const double budget = parse_double(flag(flags, "budget-ua"), "--budget-ua") * 1000.0;
    std::printf("yield @ %.4g uA: %.4f%%\n", budget * 1e-3, 100.0 * yield.yield(budget));
  }
  return 0;
}

int cmd_netlist(const std::map<std::string, std::string>& flags) {
  // Validate before the file loads: a malformed --time-budget is a usage
  // error even when the inputs are missing or slow to parse.
  if (has_flag(flags, "time-budget")) {
    if (parse_double(flag(flags, "time-budget"), "--time-budget") <= 0.0)
      usage_exit("--time-budget must be positive");
  }
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));
  const netlist::Netlist nl = netlist::load_netlist(lib, flag(flags, "netlist"));
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const netlist::UsageHistogram usage = netlist::extract_usage(nl);

  const core::CorrelationMode mode = chars.has_models()
                                         ? core::CorrelationMode::kAnalytic
                                         : core::CorrelationMode::kSimplified;
  const core::RandomGate rg(chars, usage, 0.5, mode);
  const core::LeakageEstimate est = core::estimate_linear(rg, fp, &g_run);
  std::printf("netlist      : %s (%zu gates)\n", nl.name().c_str(), nl.size());
  std::printf("RG estimate  : mean %.4f uA, sigma %.4f uA\n", est.mean_na * 1e-3,
              est.sigma_na * 1e-3);

  if (has_flag(flags, "exact") || has_flag(flags, "exact-method")) {
    core::ExactOptions opts;
    const std::string method = flag(flags, "exact-method", "auto");
    if (method == "auto") {
      opts.method = core::ExactMethod::kAuto;
    } else if (method == "direct") {
      opts.method = core::ExactMethod::kDirect;
    } else if (method == "fft") {
      opts.method = core::ExactMethod::kFft;
    } else {
      usage_exit(("unknown exact method: " + method).c_str());
    }
    opts.threads = parse_count(flag(flags, "threads", "0"), "--threads");
    opts.run = &g_run;
    const placement::Placement pl(&nl, fp);
    const core::ExactEstimator exact(chars, 0.5, mode);
    const core::LeakageEstimate truth = exact.estimate(pl, opts);
    std::printf("exact (%s) : mean %.4f uA, sigma %.4f uA\n", method.c_str(),
                truth.mean_na * 1e-3, truth.sigma_na * 1e-3);
    std::printf("sigma error  : %.4f%%\n",
                100.0 * std::abs(est.sigma_na - truth.sigma_na) / truth.sigma_na);
  }

  if (has_flag(flags, "time-budget")) {
    // Budgeted ladder: exact -> linear -> integral, degrading whenever the
    // cost model predicts the next rung would blow the remaining budget.
    const double budget_s = parse_double(flag(flags, "time-budget"), "--time-budget");
    if (budget_s <= 0.0) usage_exit("--time-budget must be positive");
    const core::CostModel costs = has_flag(flags, "cost-model")
                                      ? core::CostModel::from_bench_json(flag(flags, "cost-model"))
                                      : core::CostModel::defaults();
    core::ExactOptions opts;
    opts.threads = parse_count(flag(flags, "threads", "0"), "--threads");
    const placement::Placement pl(&nl, fp);
    const core::ExactEstimator exact(chars, 0.5, mode);
    const core::LeakageEstimate e =
        core::estimate_placed_budgeted(exact, rg, pl, budget_s, costs, opts, &g_run);
    std::printf("budgeted (%.3gs): mean %.4f uA, sigma %.4f uA [method %s]\n", budget_s,
                e.mean_na * 1e-3, e.sigma_na * 1e-3, e.method.c_str());
    if (!e.degradation.empty()) std::printf("degraded     : %s\n", e.degradation.c_str());
  }
  return 0;
}

int cmd_mc(const std::map<std::string, std::string>& flags) {
  // Flag validation before the file loads, so a malformed --time-budget is a
  // usage error (exit 2) even when --lib points at a missing file. SIGINT/
  // SIGTERM request a cooperative stop (installed in main); a time budget
  // arms the same control. Either way the engine drains within one trial per
  // worker, writes a final checkpoint when --checkpoint is set, and exits
  // with code 6.
  if (has_flag(flags, "time-budget")) {
    const double budget_s = parse_double(flag(flags, "time-budget"), "--time-budget");
    if (budget_s <= 0.0) usage_exit("--time-budget must be positive");
    g_run.arm_budget(budget_s);
  }
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));
  const netlist::Netlist nl = netlist::load_netlist(lib, flag(flags, "netlist"));
  const placement::Floorplan fp = placement::Floorplan::for_gate_count(nl.size());
  const placement::Placement pl(&nl, fp);

  mc::FullChipMcOptions opts;
  opts.trials = parse_count(flag(flags, "trials", "500"), "--trials");
  opts.seed = static_cast<std::uint64_t>(parse_int(flag(flags, "seed", "777"), "--seed"));
  opts.threads = parse_count(flag(flags, "threads", "1"), "--threads");
  opts.signal_probability = parse_double(flag(flags, "p", "0.5"), "--p");
  opts.resample_states_per_trial = has_flag(flags, "resample");
  if (has_flag(flags, "checkpoint")) opts.checkpoint_path = flag(flags, "checkpoint");
  opts.checkpoint_every = parse_count(flag(flags, "checkpoint-every", "0"), "--checkpoint-every");
  if (has_flag(flags, "resume")) opts.resume_path = flag(flags, "resume");

  opts.run = &g_run;

  mc::FullChipMonteCarlo engine(pl, chars, opts);
  mc::FullChipMcResult r;
  const ProgressPrinter progress(has_flag(flags, "progress"));
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
  return 0;
}

int cmd_batch(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const std::vector<service::JobSpec> jobs = service::load_manifest(flag(flags, "manifest"));
  service::Journal journal =
      service::Journal::open(has_flag(flags, "journal") ? flag(flags, "journal") : std::string());

  service::BatchOptions opts;
  opts.retry.max_attempts =
      1 + static_cast<int>(parse_count(flag(flags, "max-retries", "2"), "--max-retries"));
  opts.retry.backoff.base_ms = parse_double(flag(flags, "backoff", "50"), "--backoff");
  opts.retry.backoff.cap_ms = parse_double(flag(flags, "backoff-cap", "5000"), "--backoff-cap");
  if (opts.retry.backoff.base_ms < 0.0 || opts.retry.backoff.cap_ms < opts.retry.backoff.base_ms)
    usage_exit("--backoff must be >= 0 and <= --backoff-cap");
  if (has_flag(flags, "retry-budget"))
    opts.retry.batch_retry_budget = parse_count(flag(flags, "retry-budget"), "--retry-budget");
  opts.queue_depth = parse_count(flag(flags, "queue-depth", "32"), "--queue-depth");
  if (opts.queue_depth == 0) usage_exit("--queue-depth must be positive");
  opts.shed_policy = service::parse_shed_policy(flag(flags, "shed-policy", "block"));
  opts.workers = parse_count(flag(flags, "workers", "0"), "--workers");
  if (has_flag(flags, "job-deadline")) {
    opts.job_deadline_s = parse_double(flag(flags, "job-deadline"), "--job-deadline");
    if (opts.job_deadline_s <= 0.0) usage_exit("--job-deadline must be positive");
  }
  if (has_flag(flags, "stall-timeout")) {
    opts.stall_timeout_s = parse_double(flag(flags, "stall-timeout"), "--stall-timeout");
    if (opts.stall_timeout_s <= 0.0) usage_exit("--stall-timeout must be positive");
  }
  opts.jitter_seed =
      static_cast<std::uint64_t>(parse_int(flag(flags, "jitter-seed", "24029"), "--jitter-seed"));
  opts.run = &g_run;

  // Attempt isolation. The flag default stays kDefault (not kInProcess) so
  // the RGLEAK_ISOLATE environment override can force sandboxing through an
  // unmodified command line (how CI runs the existing matrix sandboxed).
  const std::string isolate = flag(flags, "isolate", "default");
  if (isolate == "process") opts.isolate = service::ExecIsolation::kProcess;
  else if (isolate == "in-process") opts.isolate = service::ExecIsolation::kInProcess;
  else if (isolate != "default")
    usage_exit("--isolate must be 'in-process' or 'process'");
  if (has_flag(flags, "isolate-grace")) {
    opts.isolate_grace_s = parse_double(flag(flags, "isolate-grace"), "--isolate-grace");
    if (opts.isolate_grace_s < 0.0) usage_exit("--isolate-grace must be >= 0");
  }

  // Memory governance: the admission budget (predictive) and the process-wide
  // reservation limit (enforcing) are set to the same ceiling.
  const std::string mem_spec = flag(flags, "mem-budget", "auto");
  std::uint64_t mem_budget = 0;
  if (mem_spec == "auto") mem_budget = util::detect_memory_limit();
  else if (mem_spec != "none") mem_budget = util::parse_memory_size(mem_spec);
  util::MemoryBudget::process().set_limit(mem_budget);
  service::ResourceGovernor governor;
  governor.mem_budget_bytes = mem_budget;
  if (has_flag(flags, "mem-model"))
    governor.costs = core::CostModel::from_bench_json(flag(flags, "mem-model"));

  service::JobRunner runner(lib);
  runner.set_governor(&governor);
  const service::BatchSummary s = [&] {
    // Scoped so the printer joins (and stops writing to stderr) before the
    // summary block below.
    const ProgressPrinter progress(has_flag(flags, "progress"));
    return service::run_batch(jobs, runner, journal, opts);
  }();
  if (mem_budget > 0)
    std::printf("mem budget   : %.1f MiB (peak charged %.1f MiB)\n",
                static_cast<double>(mem_budget) / (1024.0 * 1024.0),
                static_cast<double>(util::MemoryBudget::process().peak()) / (1024.0 * 1024.0));

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

int cmd_gen_netlist(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const std::size_t n = parse_count(flag(flags, "gates"), "--gates");
  const netlist::UsageHistogram usage = parse_usage(lib, flag(flags, "usage"));
  math::Rng rng(static_cast<std::uint64_t>(parse_int(flag(flags, "seed", "1"), "--seed")));
  const netlist::Netlist nl =
      netlist::generate_random_circuit(lib, usage, n, rng, netlist::UsageMatch::kExact,
                                       "generated");
  netlist::save_netlist(nl, flag(flags, "out"));
  std::printf("wrote %s (%zu gates)\n", flag(flags, "out").c_str(), nl.size());
  return 0;
}

int cmd_sweep(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));
  const netlist::UsageHistogram usage = parse_usage(lib, flag(flags, "usage"));
  double w_nm = 0.0, h_nm = 0.0;
  parse_die(flag(flags, "die-um"), w_nm, h_nm);
  const std::size_t from = parse_count(flag(flags, "gates-from"), "--gates-from");
  const std::size_t to = parse_count(flag(flags, "gates-to"), "--gates-to");
  const std::size_t steps = parse_count(flag(flags, "steps", "8"), "--steps");
  if (from == 0 || to < from || steps < 2) usage_exit("bad sweep range");

  core::EstimatorConfig cfg;
  cfg.run = &g_run;
  cfg.maximize_signal_probability = false;
  cfg.correlation_mode = chars.has_models() ? core::CorrelationMode::kAnalytic
                                            : core::CorrelationMode::kSimplified;
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

int cmd_liberty(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));
  charlib::write_liberty(chars, flag(flags, "out"));
  std::printf("wrote %s\n", flag(flags, "out").c_str());
  return 0;
}

int cmd_spice(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  cells::write_spice_library(lib, flag(flags, "out"));
  std::printf("wrote %s (%zu subcircuits)\n", flag(flags, "out").c_str(), lib.size());
  return 0;
}

int cmd_corners(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));
  const netlist::UsageHistogram usage = parse_usage(lib, flag(flags, "usage"));
  const std::size_t gates = parse_count(flag(flags, "gates"), "--gates");
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

int cmd_sensitivity(const std::map<std::string, std::string>& flags) {
  const cells::StdCellLibrary& lib = cells::build_virtual90_library();
  const charlib::CharacterizedLibrary chars =
      charlib::load_characterization(lib, flag(flags, "lib"));
  const netlist::UsageHistogram usage = parse_usage(lib, flag(flags, "usage"));
  const std::size_t gates = parse_count(flag(flags, "gates"), "--gates");
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
  // Crash hygiene of last resort: an exception that escapes the catch blocks
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
    const auto flags = parse_flags(argc, argv, 2);
    // ConfigError (exit 2) on an unknown action or malformed spec — a typo'd
    // spec that silently never fired would make a robustness run vacuous.
    if (has_flag(flags, "failpoint")) util::Failpoints::arm_specs(flags.at("failpoint"));
    // Armed before dispatch so every phase span of the command lands in the
    // file; sandboxed job children inherit the O_APPEND fd across fork and
    // append to the same file (atomic single-write lines, no interleaving).
    if (has_flag(flags, "trace")) util::trace::open(flags.at("trace"));
    if (has_flag(flags, "metrics-json")) metrics_json_path = flags.at("metrics-json");
    rc = [&]() -> int {
      if (cmd == "characterize") return cmd_characterize(flags);
      if (cmd == "estimate") return cmd_estimate(flags);
      if (cmd == "netlist") return cmd_netlist(flags);
      if (cmd == "mc") return cmd_mc(flags);
      if (cmd == "batch") return cmd_batch(flags);
      if (cmd == "gen-netlist") return cmd_gen_netlist(flags);
      if (cmd == "sweep") return cmd_sweep(flags);
      if (cmd == "liberty") return cmd_liberty(flags);
      if (cmd == "spice") return cmd_spice(flags);
      if (cmd == "corners") return cmd_corners(flags);
      if (cmd == "sensitivity") return cmd_sensitivity(flags);
      usage_exit(("unknown command: " + cmd).c_str());
    }();
  } catch (const Error& e) {
    // Exit-code contract: 1 = internal bug, 2 = usage/config, 3 = parse,
    // 4 = numerical, 5 = io.
    if (json_errors) {
      std::fprintf(stderr, "%s\n", error_json(e).c_str());
    } else {
      std::fprintf(stderr, "error: %s\n", e.message().c_str());
      if (e.code() == ErrorCode::kContract)
        std::fprintf(stderr, "this is a bug in rgleak, not in your input; please report it\n");
    }
    rc = exit_code_for(e.code());
  } catch (const std::bad_alloc&) {
    // An allocation that escaped every charged arena: still a typed exit.
    if (json_errors)
      std::fprintf(stderr, "{\"error\":\"resource\",\"message\":\"allocation failed\"}\n");
    else
      std::fprintf(stderr, "error: allocation failed (out of memory)\n");
    rc = 8;
  } catch (const std::exception& e) {
    if (json_errors)
      std::fprintf(stderr, "%s\n", error_json(e).c_str());
    else
      std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
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
