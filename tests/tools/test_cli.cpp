// Black-box tests against the real `rgleak` binary (path injected by CMake
// as RGLEAK_CLI_PATH). Regression coverage for the NaN-flag bug: strtod
// happily parses "nan"/"inf", and NaN slides past every `x <= 0.0` range
// guard (all comparisons with NaN are false), so `--time-budget nan` used to
// arm a poisoned deadline instead of failing. Every numeric flag must now
// reject non-finite values with a usage error (exit 2).

#include <sys/wait.h>

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// Runs the CLI with `args`, returns its exit code (-1 if it died abnormally).
// Stdout goes to `out` when given, else is dropped.
int run_cli(const std::string& args, const std::string& out = "/dev/null") {
  const std::string cmd =
      std::string(RGLEAK_CLI_PATH) + " " + args + " >" + out + " 2>/dev/null";
  const int status = std::system(cmd.c_str());
  if (status < 0 || !WIFEXITED(status)) return -1;
  return WEXITSTATUS(status);
}

// An empty manifest is a valid batch of zero jobs: the cheapest way to reach
// (or prove we never reached) the flag-validation layer.
class CliFlags : public ::testing::Test {
 protected:
  void SetUp() override {
    manifest_ = temp_path("rgleak_cli_empty_manifest.jsonl");
    std::ofstream(manifest_).close();
  }
  void TearDown() override { std::remove(manifest_.c_str()); }

  std::string batch(const std::string& extra) {
    return "batch --manifest " + manifest_ + " " + extra;
  }

  std::string manifest_;
};

TEST_F(CliFlags, EmptyBatchSucceeds) {
  EXPECT_EQ(run_cli(batch("")), 0);
}

TEST_F(CliFlags, NonFiniteNumericFlagsAreUsageErrors) {
  for (const char* bad : {"nan", "inf", "-inf", "NAN", "Infinity"}) {
    EXPECT_EQ(run_cli(batch("--backoff " + std::string(bad))), 2) << bad;
  }
  EXPECT_EQ(run_cli(batch("--job-deadline nan")), 2);
  EXPECT_EQ(run_cli(batch("--stall-timeout inf")), 2);
}

TEST_F(CliFlags, TimeBudgetNanIsAUsageErrorBeforeFileLoads) {
  // --lib/--netlist point nowhere: the non-finite budget must fail as a
  // usage error (2), not as a downstream io error (5) — flag validation
  // comes first.
  EXPECT_EQ(run_cli("mc --lib /nonexistent --netlist /nonexistent --time-budget nan"), 2);
  EXPECT_EQ(run_cli("mc --lib /nonexistent --netlist /nonexistent --time-budget inf"), 2);
  EXPECT_EQ(run_cli("mc --lib /nonexistent --netlist /nonexistent --time-budget -inf"), 2);
  EXPECT_EQ(run_cli("netlist --lib /nonexistent --netlist /nonexistent --time-budget nan"), 2);
  // Control: a finite budget gets past flag validation and fails on the
  // missing file instead (io, exit 5).
  EXPECT_EQ(run_cli("mc --lib /nonexistent --netlist /nonexistent --time-budget 5"), 5);
}

TEST_F(CliFlags, FiniteGarbageIsStillRejected) {
  EXPECT_EQ(run_cli(batch("--backoff abc")), 2);
  EXPECT_EQ(run_cli(batch("--backoff 1.5x")), 2);
}

TEST_F(CliFlags, MetricsJsonIsWrittenAtExit) {
  const std::string out = temp_path("rgleak_cli_metrics.json");
  std::remove(out.c_str());
  ASSERT_EQ(run_cli(batch("--metrics-json " + out)), 0);
  std::ifstream in(out);
  ASSERT_TRUE(in.good());
  std::string json;
  std::getline(in, json);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"batch.jobs.started\":0"), std::string::npos);
  std::remove(out.c_str());
}

TEST_F(CliFlags, MemModelNeedsWallMsInEveryRecord) {
  // --mem-model reads through the same calibration reader as --cost-model, so
  // a record without wall_ms is a parse error (exit 3), not a skipped record.
  const std::string model = temp_path("rgleak_cli_mem_model.json");
  std::ofstream(model) << R"({"records": [{"sites": 1024, "method": "fft", )"
                          R"("budget_peak_bytes": 4750344}]})";
  EXPECT_EQ(run_cli(batch("--mem-model " + model)), 3);
  std::ofstream(model) << R"({"records": [{"sites": 1024, "method": "fft", "wall_ms": 1.5, )"
                          R"("budget_peak_bytes": 4750344}]})";
  EXPECT_EQ(run_cli(batch("--mem-model " + model)), 0);
  std::remove(model.c_str());
}

// Bad values of the job parameters the commands share with the batch
// (service/params.h), against real inputs, so that only the checked value
// stands between the command and a run: each must be a usage error (exit 2),
// never an engine contract check (exit 1) or a run that ignores it (exit 0).
class CliParams : public ::testing::Test {
 protected:
  static std::string lib() { return temp_path("rgleak_cli_params.rgchar"); }
  static std::string netlist() { return temp_path("rgleak_cli_params.rgnl"); }

  static void SetUpTestSuite() {
    ASSERT_EQ(run_cli("characterize --out " + lib()), 0);
    ASSERT_EQ(run_cli("gen-netlist --out " + netlist() +
                      " --gates 64 --usage INV_X1:1,NAND2_X1:1 --seed 3"),
              0);
  }
  static void TearDownTestSuite() {
    std::remove(lib().c_str());
    std::remove(netlist().c_str());
  }

  static std::string estimate() {
    return "estimate --lib " + lib() +
           " --usage INV_X1:1,NAND2_X1:1 --gates 500 --die-um 30x30";
  }
  static std::string mc() { return "mc --lib " + lib() + " --netlist " + netlist() + " --trials 2"; }
};

TEST_F(CliParams, BadValuesAreUsageErrors) {
  ASSERT_EQ(run_cli(estimate()), 0);
  EXPECT_EQ(run_cli(estimate() + " --gates 0"), 2);
  EXPECT_EQ(run_cli(estimate() + " --p 1.5"), 2);
  EXPECT_EQ(run_cli(estimate() + " --die-um nanx30"), 2);
  EXPECT_EQ(run_cli(estimate() + " --usage INV_X1:inf"), 2);
  EXPECT_EQ(run_cli(estimate() + " --usage FOO:1"), 2);
  ASSERT_EQ(run_cli(mc()), 0);
  EXPECT_EQ(run_cli(mc() + " --trials 1"), 2);
  EXPECT_EQ(run_cli(mc() + " --seed -1"), 2);
  EXPECT_EQ(run_cli("characterize --out " + temp_path("rgleak_cli_unused.rgchar") +
                    " --sigma-wid -1"),
            2);
}

TEST_F(CliParams, ExactZeroSkipsTheExactAnalysis) {
  const std::string out = temp_path("rgleak_cli_netlist.txt");
  const std::string netlist_cmd = "netlist --lib " + lib() + " --netlist " + netlist();
  const auto ran_exact = [&](const std::string& extra) {
    EXPECT_EQ(run_cli(netlist_cmd + extra, out), 0) << extra;
    std::ifstream in(out);
    const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
    return text.find("exact (") != std::string::npos;
  };
  EXPECT_TRUE(ran_exact(" --exact 1"));
  EXPECT_FALSE(ran_exact(" --exact 0"));
  EXPECT_FALSE(ran_exact(""));
  EXPECT_TRUE(ran_exact(" --exact 0 --exact-method fft")) << "an exact method asks for it";
  EXPECT_EQ(run_cli(netlist_cmd + " --exact banana"), 2);
  std::remove(out.c_str());
}

TEST_F(CliParams, MetricsJsonSplitsAnEstimateIntoItsRgBuildAndItsRung) {
  const std::string out = temp_path("rgleak_cli_estimate_metrics.json");
  std::remove(out.c_str());
  ASSERT_EQ(run_cli(estimate() + " --method rect --metrics-json " + out), 0);
  std::ifstream in(out);
  std::string json;
  std::getline(in, json);
  EXPECT_NE(json.find("\"estimator.random_gate_ms\":{\"count\":1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"estimator.integral_rect_ms\":{\"count\":1,"), std::string::npos) << json;
  std::remove(out.c_str());
}

TEST_F(CliParams, SharedParameterSpellingsReachEveryCommand) {
  // Counts accept the float spelling the manifest always accepted.
  EXPECT_EQ(run_cli(mc() + " --trials 1e1"), 0);
  // --p on netlist, --time-budget on estimate and --samples on characterize
  // are the jobs' p, time_budget_s and samples.
  EXPECT_EQ(run_cli("netlist --lib " + lib() + " --netlist " + netlist() + " --p 0.3"), 0);
  EXPECT_EQ(run_cli("netlist --lib " + lib() + " --netlist " + netlist() + " --p max"), 2);
  EXPECT_EQ(run_cli(estimate() + " --time-budget 5"), 0);
  EXPECT_EQ(run_cli(estimate() + " --time-budget nan"), 2);
  EXPECT_EQ(run_cli("characterize --mode mc --samples 1 --out " +
                    temp_path("rgleak_cli_unused.rgchar")),
            2);
}

}  // namespace
