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
#include <string>

namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + name;
}

// Runs the CLI with `args`, returns its exit code (-1 if it died abnormally).
int run_cli(const std::string& args) {
  const std::string cmd =
      std::string(RGLEAK_CLI_PATH) + " " + args + " >/dev/null 2>/dev/null";
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

}  // namespace
