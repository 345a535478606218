// service::Params and the per-kind builders: the one reader behind the
// batch's job kinds and the CLI's flags. Every check raises one ConfigError
// naming its parameter, a parameter no read asks for is refused by name,
// good parameters build the engine inputs (defaults included), and a batch
// of bad-input jobs journals each one as a config failure.

#include "service/params.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "charlib/io.h"
#include "math/rng.h"
#include "netlist/io.h"
#include "netlist/random_circuit.h"
#include "service/batch_runner.h"
#include "service/job_queue.h"
#include "service/job_runner.h"
#include "test_util.h"

namespace rgleak::service {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;
using Raw = std::map<std::string, std::string>;

JobSpec spec(const std::string& kind, Raw params) {
  JobSpec job;
  job.id = "t";
  job.kind = kind;
  job.params = std::move(params);
  return job;
}

// The smallest valid parameter set of each kind.
Raw base(const std::string& kind) {
  if (kind == "estimate")
    return {{"lib", "lib.rgchar"}, {"usage", "INV_X1:3,NAND2_X1:1"}, {"gates", "400"},
            {"die_um", "30x20"}};
  if (kind == "characterize") return {{"out", "lib.rgchar"}};
  return {{"lib", "lib.rgchar"}, {"netlist", "d.rgnl"}};
}

// Every builder the kind's front ends call.
void build(const std::string& kind, const Params& p) {
  if (kind == "estimate") {
    (void)design_characteristics(p, mini_library());
    (void)estimator_config(p);
  } else if (kind == "netlist") {
    (void)netlist_request(p);
  } else if (kind == "mc") {
    (void)mc_options(p);
  } else {
    (void)characterize_request(p);
  }
}

// What the kind's runner reads besides the builders: the files it loads or
// writes. After build() and this, a job's parameters are all read.
void read_paths(const std::string& kind, const Params& p) {
  if (kind == "characterize") {
    (void)p.text("out");
    return;
  }
  (void)p.text("lib");
  if (kind != "estimate") (void)p.text("netlist");
}

// Reads a job of `kind` as its runner does, then refuses what went unread.
void read_job(const std::string& kind, Raw raw) {
  const JobSpec job = spec(kind, std::move(raw));
  const Params p(job);
  build(kind, p);
  read_paths(kind, p);
  p.reject_unread();
}

struct BadCase {
  const char* kind;
  const char* key;
  const char* value;
};

const BadCase kBadCases[] = {
    {"estimate", "gates", "0"},
    {"estimate", "gates", "-1"},
    {"estimate", "gates", "1.5"},
    {"estimate", "gates", "1e30"},
    {"estimate", "gates", "9007199254740993"},
    {"estimate", "gates", "nan"},
    {"estimate", "gates", "12abc"},
    {"estimate", "usage", "INV_X1:inf"},
    {"estimate", "usage", "INV_X1:nan"},
    {"estimate", "usage", "INV_X1:0"},
    {"estimate", "usage", "INV_X1:-1"},
    {"estimate", "usage", "FOO:1"},
    {"estimate", "usage", "INV_X1"},
    {"estimate", "usage", ",INV_X1:1"},
    {"estimate", "usage", "INV_X1:1e308,NAND2_X1:1e308"},
    {"estimate", "usage", ""},
    {"estimate", "die_um", "nanx30"},
    {"estimate", "die_um", "infx30"},
    {"estimate", "die_um", "30x0"},
    {"estimate", "die_um", "-1x30"},
    {"estimate", "die_um", "30"},
    {"estimate", "die_um", "30x30x30"},
    {"estimate", "p", "1.5"},
    {"estimate", "p", "-0.1"},
    {"estimate", "p", "nan"},
    {"estimate", "p", "half"},
    {"estimate", "method", "exact"},
    {"estimate", "time_budget_s", "nan"},
    {"estimate", "time_budget_s", "inf"},
    {"estimate", "time_budget_s", "0"},
    {"estimate", "time_budget_s", "-1"},
    {"netlist", "p", "max"},
    {"netlist", "p", "2"},
    {"netlist", "exact", "banana"},
    {"netlist", "exact", "2"},
    {"netlist", "exact_method", "fast"},
    {"netlist", "threads", "257"},
    {"netlist", "threads", "100000"},
    {"netlist", "threads", "-1"},
    {"netlist", "time_budget_s", "nan"},
    {"netlist", "time_budget_s", "0"},
    {"mc", "trials", "1"},
    {"mc", "trials", "0"},
    {"mc", "trials", "2.5"},
    {"mc", "trials", "1e30"},
    {"mc", "seed", "-1"},
    {"mc", "seed", "1.5"},
    {"mc", "seed", "1e3"},
    {"mc", "seed", "+7"},
    {"mc", "seed", "18446744073709551616"},
    {"mc", "threads", "257"},
    {"mc", "threads", "1e9"},
    {"mc", "p", "nan"},
    {"mc", "p", "1.5"},
    {"mc", "resample", "maybe"},
    {"characterize", "mode", "spice"},
    {"characterize", "samples", "1"},
    {"characterize", "mean_l", "0"},
    {"characterize", "mean_l", "nan"},
    {"characterize", "sigma_d2d", "-1"},
    {"characterize", "sigma_d2d", "inf"},
    {"characterize", "sigma_wid", "-1"},
    {"characterize", "sigma_vt", "-0.01"},
    {"characterize", "corr", "fractal"},
    {"characterize", "corr_scale_um", "0"},
    {"characterize", "corr_scale_um", "inf"},
};

TEST(Params, EveryBadValueIsOneConfigErrorNamingItsParameter) {
  for (const BadCase& c : kBadCases) {
    SCOPED_TRACE(std::string(c.kind) + " " + c.key + "=" + c.value);
    Raw raw = base(c.kind);
    raw[c.key] = c.value;
    const JobSpec job = spec(c.kind, raw);
    try {
      build(c.kind, Params(job));
      ADD_FAILURE() << "accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + c.key + "\""), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("job 't' (" + std::string(c.kind) + ")"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Params, UnreadParametersAreRefusedByName) {
  for (const std::string kind : {"estimate", "netlist", "mc", "characterize"}) {
    SCOPED_TRACE(kind);
    EXPECT_NO_THROW(read_job(kind, base(kind)));
    Raw typo = base(kind);
    typo["methd"] = "polar";
    try {
      read_job(kind, typo);
      ADD_FAILURE() << "accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("unknown parameter \"methd\""), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("job 't' (" + kind + ")"), std::string::npos)
          << e.what();
    }
    // The process sandbox reads a job's failpoint from the raw parameters.
    Raw failpoint = base(kind);
    failpoint["failpoint"] = "service.job.execute:throw";
    EXPECT_NO_THROW(read_job(kind, failpoint));
  }
  // Every key of perfbench's plan-batch manifest (id and kind aside) is one
  // the estimate kind reads.
  Raw plan = base("estimate");
  plan["method"] = "rect";
  plan["p"] = "max";
  EXPECT_NO_THROW(read_job("estimate", plan));
}

TEST(Params, BothLengthSigmasZeroIsRefused) {
  const JobSpec job =
      spec("characterize", {{"out", "x.rgchar"}, {"sigma_d2d", "0"}, {"sigma_wid", "0"}});
  try {
    (void)characterize_request(Params(job));
    ADD_FAILURE() << "accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("\"sigma_wid\""), std::string::npos) << e.what();
  }
  // One of the two may be zero.
  const JobSpec d2d_only = spec("characterize", {{"out", "x.rgchar"}, {"sigma_wid", "0"}});
  EXPECT_EQ(characterize_request(Params(d2d_only)).process.length().sigma_wid_nm, 0.0);
}

TEST(Params, MissingRequiredParametersAreNamed) {
  for (const char* key : {"usage", "gates", "die_um"}) {
    Raw raw = base("estimate");
    raw.erase(key);
    const JobSpec job = spec("estimate", raw);
    try {
      build("estimate", Params(job));
      ADD_FAILURE() << key << " not required";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("needs parameter \"") + key + "\""),
                std::string::npos)
          << e.what();
    }
  }
  const JobSpec empty_lib = spec("mc", {{"lib", ""}});
  EXPECT_THROW((void)Params(empty_lib).text("lib"), ConfigError);
}

// The reads the CLI uses for its own flags, on the reader alone: a regression
// in the thread caps must never get to start that many threads.
TEST(Params, ReaderChecksTheCliOnlyFlags) {
  const JobSpec job = spec("batch", {{"workers", "257"},
                                     {"job_deadline", "nan"},
                                     {"stall_timeout", "0"},
                                     {"backoff", "-1"},
                                     {"quantile", "1"},
                                     {"shed_policy", "yolo"},
                                     {"jitter_seed", "-5"},
                                     {"queue_depth", "0"}});
  const Params p(job);
  const auto expect_named = [](const char* key, const std::function<void()>& read) {
    try {
      read();
      ADD_FAILURE() << key << " accepted";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("\"") + key + "\""), std::string::npos)
          << e.what();
    }
  };
  expect_named("workers", [&] { (void)p.threads("workers", 0); });
  expect_named("job_deadline", [&] { (void)p.number("job_deadline", 0.0, Range::kPositive); });
  expect_named("stall_timeout", [&] { (void)p.number("stall_timeout", 0.0, Range::kPositive); });
  expect_named("backoff", [&] { (void)p.number("backoff", 50.0, Range::kNonNegative); });
  expect_named("quantile", [&] { (void)p.number("quantile", 0.5, Range::kOpenUnit); });
  expect_named("shed_policy", [&] { (void)p.parse("shed_policy", "block", parse_shed_policy); });
  expect_named("jitter_seed", [&] { (void)p.seed("jitter_seed", 1); });
  expect_named("queue_depth", [&] { (void)p.count("queue_depth", 32, 1); });
  // At the caps: 256 threads and 0 (all cores) are fine.
  const JobSpec ok = spec("batch", {{"workers", "256"}, {"threads", "0"}});
  EXPECT_EQ(Params(ok).threads("workers", 1), 256u);
  EXPECT_EQ(Params(ok).threads("threads", 1), 0u);
}

TEST(Params, CliCommandsAreNamedByKind) {
  JobSpec job = spec("estimate", {{"gates", "0"}});
  job.id.clear();
  try {
    (void)Params(job).count("gates", std::nullopt, 1);
    ADD_FAILURE() << "accepted";
  } catch (const ConfigError& e) {
    EXPECT_EQ(std::string(e.what()).rfind("estimate: parameter \"gates\"", 0), 0u) << e.what();
  }
}

TEST(Params, EstimateBuildsTheDesignAndConfig) {
  const JobSpec job = spec("estimate", base("estimate"));
  const Params p(job);
  const core::DesignCharacteristics d = design_characteristics(p, mini_library());
  EXPECT_EQ(d.gate_count, 400u);
  EXPECT_EQ(d.width_nm, 30000.0);
  EXPECT_EQ(d.height_nm, 20000.0);
  ASSERT_EQ(d.usage.alphas.size(), mini_library().size());
  EXPECT_EQ(d.usage.alphas[mini_library().index_of("INV_X1")], 0.75);
  EXPECT_EQ(d.usage.alphas[mini_library().index_of("NAND2_X1")], 0.25);

  const core::EstimatorConfig defaults = estimator_config(p);
  EXPECT_EQ(defaults.method, core::EstimationMethod::kAuto);
  EXPECT_TRUE(defaults.maximize_signal_probability);
  EXPECT_EQ(defaults.time_budget_s, 0.0);

  Raw raw = base("estimate");
  raw["gates"] = "1e3";
  raw["method"] = "rect";
  raw["p"] = "0.3";
  raw["time_budget_s"] = "2.5";
  raw["usage"] = "INV_X1:1,INV_X1:1,NAND2_X1:2";
  const JobSpec set = spec("estimate", raw);
  const core::DesignCharacteristics d2 = design_characteristics(Params(set), mini_library());
  EXPECT_EQ(d2.gate_count, 1000u);
  EXPECT_EQ(d2.usage.alphas[mini_library().index_of("INV_X1")], 0.5);
  const core::EstimatorConfig cfg = estimator_config(Params(set));
  EXPECT_EQ(cfg.method, core::EstimationMethod::kIntegralRect);
  EXPECT_FALSE(cfg.maximize_signal_probability);
  EXPECT_EQ(cfg.signal_probability, 0.3);
  EXPECT_EQ(cfg.time_budget_s, 2.5);
  for (const auto& [name, method] :
       std::vector<std::pair<const char*, core::EstimationMethod>>{
           {"auto", core::EstimationMethod::kAuto},
           {"linear", core::EstimationMethod::kLinear},
           {"polar", core::EstimationMethod::kIntegralPolar}}) {
    raw["method"] = name;
    EXPECT_EQ(estimator_config(Params(spec("estimate", raw))).method, method) << name;
  }
}

TEST(Params, NetlistRequestDefaultsAndExactSelection) {
  const JobSpec job = spec("netlist", base("netlist"));
  const NetlistRequest r = netlist_request(Params(job));
  EXPECT_EQ(r.signal_probability, 0.5);
  EXPECT_EQ(r.time_budget_s, 0.0);
  EXPECT_FALSE(r.exact);
  EXPECT_STREQ(r.exact_method, "auto");
  EXPECT_EQ(r.exact_options.method, core::ExactMethod::kAuto);
  EXPECT_EQ(r.exact_options.threads, 0u) << "the engine default: all cores";
  EXPECT_EQ(netlist_request(Params(job), 1).exact_options.threads, 1u);

  Raw raw = base("netlist");
  raw["exact"] = "true";
  EXPECT_TRUE(netlist_request(Params(spec("netlist", raw))).exact);
  raw["exact"] = "0";
  EXPECT_FALSE(netlist_request(Params(spec("netlist", raw))).exact) << "--exact 0 means no";
  raw["exact_method"] = "direct";
  raw["threads"] = "2";
  raw["p"] = "0.25";
  raw["time_budget_s"] = "5";
  const NetlistRequest set = netlist_request(Params(spec("netlist", raw)));
  EXPECT_TRUE(set.exact) << "an exact_method asks for the exact analysis";
  EXPECT_STREQ(set.exact_method, "direct");
  EXPECT_EQ(set.exact_options.method, core::ExactMethod::kDirect);
  EXPECT_EQ(set.exact_options.threads, 2u);
  EXPECT_EQ(set.signal_probability, 0.25);
  EXPECT_EQ(set.time_budget_s, 5.0);
  raw["exact_method"] = "fft";
  EXPECT_EQ(netlist_request(Params(spec("netlist", raw))).exact_options.method,
            core::ExactMethod::kFft);
}

TEST(Params, McOptionsDefaultToTheEngineAndKeepEverySeedDigit) {
  const mc::FullChipMcOptions engine;
  const mc::FullChipMcOptions opts = mc_options(Params(spec("mc", base("mc"))));
  EXPECT_EQ(opts.trials, 500u);
  EXPECT_EQ(opts.trials, engine.trials);
  EXPECT_EQ(opts.seed, 777u);
  EXPECT_EQ(opts.threads, 1u);
  EXPECT_EQ(opts.signal_probability, 0.5);
  EXPECT_FALSE(opts.resample_states_per_trial);

  Raw raw = base("mc");
  raw["trials"] = "1e3";
  raw["seed"] = "9007199254740993";  // 2^53 + 1: a double would round it
  raw["threads"] = "2";
  raw["p"] = "0.4";
  raw["resample"] = "true";
  const mc::FullChipMcOptions set = mc_options(Params(spec("mc", raw)));
  EXPECT_EQ(set.trials, 1000u);
  EXPECT_EQ(set.seed, 9007199254740993ull);
  EXPECT_EQ(set.threads, 2u);
  EXPECT_EQ(set.signal_probability, 0.4);
  EXPECT_TRUE(set.resample_states_per_trial);
  raw["seed"] = "18446744073709551615";
  EXPECT_EQ(mc_options(Params(spec("mc", raw))).seed, UINT64_MAX);
}

TEST(Params, CharacterizeRequestDefaults) {
  const CharacterizeRequest req =
      characterize_request(Params(spec("characterize", base("characterize"))));
  EXPECT_STREQ(req.mode, "analytic");
  EXPECT_FALSE(req.monte_carlo);
  EXPECT_EQ(req.samples, 20000u);
  EXPECT_EQ(req.process.length().mean_nm, 40.0);
  EXPECT_EQ(req.process.length().sigma_d2d_nm, 1.7678);
  EXPECT_EQ(req.process.length().sigma_wid_nm, 1.7678);
  EXPECT_EQ(req.process.vt().sigma_v, 0.02);
  EXPECT_EQ(req.process.wid_correlation().name(),
            process::make_correlation("exponential", 1e5)->name());
  EXPECT_DOUBLE_EQ(req.process.wid_correlation()(1e5), std::exp(-1.0));

  Raw raw = base("characterize");
  raw["mode"] = "mc";
  raw["samples"] = "64";
  raw["mean_l"] = "45";
  raw["sigma_d2d"] = "1";
  raw["sigma_wid"] = "2";
  raw["sigma_vt"] = "0";
  raw["corr"] = "gaussian";
  raw["corr_scale_um"] = "50";
  const CharacterizeRequest set = characterize_request(Params(spec("characterize", raw)));
  EXPECT_STREQ(set.mode, "mc");
  EXPECT_TRUE(set.monte_carlo);
  EXPECT_EQ(set.samples, 64u);
  EXPECT_EQ(set.process.length().mean_nm, 45.0);
  EXPECT_EQ(set.process.length().sigma_d2d_nm, 1.0);
  EXPECT_EQ(set.process.length().sigma_wid_nm, 2.0);
  EXPECT_EQ(set.process.vt().sigma_v, 0.0);
  EXPECT_EQ(set.process.wid_correlation().name(),
            process::make_correlation("gaussian", 5e4)->name());
}

TEST(Params, CorrelationModeFollowsTheLibrary) {
  EXPECT_EQ(core::correlation_mode_for(mini_chars_analytic()), core::CorrelationMode::kAnalytic);
}

std::string temp_path(const char* name) { return std::string(::testing::TempDir()) + name; }

// The same bad inputs through the production runner, beside good jobs that
// share their files: each bad job journals a config failure on its first
// attempt — not "contract" from an engine check, and not a success (a NaN
// time budget must not run unbudgeted).
TEST(Params, BatchJournalsEveryBadInputJobAsConfig) {
  const std::string lib = temp_path("rgleak_params_lib.rgchar");
  const std::string nl = temp_path("rgleak_params_netlist.rgnl");
  charlib::save_characterization(mini_chars_analytic(), lib);
  netlist::UsageHistogram usage;
  usage.alphas.assign(mini_library().size(), 0.0);
  usage.alphas[0] = 0.6;
  usage.alphas[1] = 0.4;
  math::Rng gen(5);
  netlist::save_netlist(netlist::generate_random_circuit(mini_library(), usage, 64, gen), nl);

  const std::map<std::string, Raw> good = {
      {"estimate", {{"lib", lib}, {"usage", "INV_X1:3,NAND2_X1:1"}, {"gates", "400"},
                    {"die_um", "30x20"}, {"p", "0.5"}}},
      {"netlist", {{"lib", lib}, {"netlist", nl}}},
      {"mc", {{"lib", lib}, {"netlist", nl}, {"trials", "4"}}},
      {"characterize", {{"out", temp_path("rgleak_params_out.rgchar")}}},
  };
  const std::vector<BadCase> bad = {
      {"estimate", "gates", "0"},         {"estimate", "gates", "1e30"},
      {"estimate", "p", "1.5"},           {"estimate", "p", "nan"},
      {"estimate", "die_um", "nanx30"},   {"estimate", "die_um", "infx30"},
      {"estimate", "usage", "INV_X1:inf"}, {"estimate", "usage", "INV_X1:nan"},
      {"estimate", "usage", "FOO:1"},     {"estimate", "time_budget_s", "nan"},
      {"netlist", "exact", "banana"},     {"netlist", "p", "max"},
      {"mc", "trials", "1"},              {"mc", "seed", "-1"},
      {"mc", "p", "nan"},                 {"characterize", "sigma_wid", "-1"},
      {"characterize", "corr_scale_um", "0"},
      // Parameters that no reader asks for, e.g. a misspelled "method" that
      // would otherwise leave the default rung running.
      {"estimate", "methd", "polar"},     {"netlist", "exact_methd", "fft"},
      {"mc", "trails", "4"},              {"characterize", "samles", "64"},
  };
  std::vector<JobSpec> jobs;
  for (const auto& [kind, raw] : good) {
    JobSpec job = spec(kind, raw);
    job.id = "good-" + kind;
    jobs.push_back(job);
  }
  for (std::size_t i = 0; i < bad.size(); ++i) {
    Raw raw = good.at(bad[i].kind);
    raw[bad[i].key] = bad[i].value;
    JobSpec job = spec(bad[i].kind, raw);
    job.id = "bad-" + std::to_string(i) + "-" + bad[i].key;
    jobs.push_back(job);
  }

  JobRunner runner(mini_library());
  Journal journal = Journal::open("");
  const BatchSummary s = run_batch(jobs, runner, journal);
  EXPECT_EQ(s.succeeded, good.size());
  EXPECT_EQ(s.failed, bad.size());
  const auto records = journal.records();
  for (const JobSpec& job : jobs) {
    SCOPED_TRACE(job.id);
    const JobRecord& rec = records.at(job.id);
    if (job.id.rfind("good-", 0) == 0) {
      EXPECT_EQ(rec.status, JobStatus::kSucceeded) << rec.error;
      continue;
    }
    EXPECT_EQ(rec.status, JobStatus::kFailed);
    EXPECT_EQ(rec.attempts, 1);
    EXPECT_NE(rec.error.find("\"error\":\"config\""), std::string::npos) << rec.error;
  }
  std::remove(lib.c_str());
  std::remove(nl.c_str());
  std::remove(temp_path("rgleak_params_out.rgchar").c_str());
}

}  // namespace
}  // namespace rgleak::service
