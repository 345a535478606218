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
#include <map>
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

TEST_F(CliFlags, UnreadFlagsAreUsageErrors) {
  // A typo'd --mem-budget must not run the batch uncapped, and the retired
  // --mem-model must not be ignored: both are refused before the manifest
  // loads.
  EXPECT_EQ(run_cli(batch("--mem-budgt 1k")), 2);
  EXPECT_EQ(run_cli(batch("--mem-model x")), 2);
  // The global flags stay accepted by every command.
  EXPECT_EQ(run_cli(batch("--error-json --progress --metrics-json /dev/null")), 0);
}

// Bad values of the job parameters the commands share with the batch
// (service/params.h), against real inputs, so that only the checked value
// stands between the command and a run: each must be a usage error (exit 2),
// never an engine contract check (exit 1) or a run that ignores it (exit 0).
class CliParams : public ::testing::Test {
 protected:
  static std::string lib() { return temp_path("rgleak_cli_params.rgchar"); }
  static std::string netlist() { return temp_path("rgleak_cli_params.rgnl"); }
  /// 400 gates on a 20x20 grid.
  static std::string netlist400() { return temp_path("rgleak_cli_params_400.rgnl"); }

  static void SetUpTestSuite() {
    ASSERT_EQ(run_cli("characterize --out " + lib()), 0);
    ASSERT_EQ(run_cli("gen-netlist --out " + netlist() +
                      " --gates 64 --usage INV_X1:1,NAND2_X1:1 --seed 3"),
              0);
    ASSERT_EQ(run_cli("gen-netlist --out " + netlist400() +
                      " --gates 400 --usage INV_X1:0.5,NAND2_X1:0.5"),
              0);
  }
  static void TearDownTestSuite() {
    std::remove(lib().c_str());
    std::remove(netlist().c_str());
    std::remove(netlist400().c_str());
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

TEST_F(CliParams, UnreadFlagIsAUsageError) {
  const std::string netlist_cmd = "netlist --lib " + lib() + " --netlist " + netlist();
  ASSERT_EQ(run_cli(netlist_cmd), 0);
  EXPECT_EQ(run_cli(netlist_cmd + " --bogus-flag 7"), 2);
  EXPECT_EQ(run_cli(estimate() + " --methd polar"), 2);
  EXPECT_EQ(run_cli(netlist_cmd + " --cost-model /nonexistent"), 5)
      << "read and loaded, with or without a --time-budget";
}

// The governance recipe's three-job batch: an early estimate, an exact FFT
// netlist job and an MC job on the 400-gate design, whose 20x20 grid has
// arenas of 12,856 B (direct), 33,280 B (FFT) and 447,264 B per MC worker
// (a 128x128 embedding). Returns the journal's record line per job id, and
// the batch's stdout summary in `summary` when given.
std::map<std::string, std::string> run_governed_batch(const std::string& lib,
                                                      const std::string& netlist400,
                                                      const std::string& mem_budget, int* rc,
                                                      std::string* summary = nullptr) {
  const std::string manifest = temp_path("rgleak_cli_gov.jsonl");
  const std::string journal = temp_path("rgleak_cli_gov.journal");
  std::ofstream(manifest)
      << "{\"id\":\"e\",\"kind\":\"estimate\",\"lib\":\"" << lib
      << "\",\"usage\":\"INV_X1:0.4,NAND2_X1:0.6\",\"gates\":400,\"die_um\":\"30x30\"}\n"
      << "{\"id\":\"f\",\"kind\":\"netlist\",\"lib\":\"" << lib << "\",\"netlist\":\""
      << netlist400 << "\",\"exact\":\"true\",\"exact_method\":\"fft\"}\n"
      << "{\"id\":\"m\",\"kind\":\"mc\",\"lib\":\"" << lib << "\",\"netlist\":\""
      << netlist400 << "\",\"trials\":\"20\"}\n";
  const std::string out = temp_path("rgleak_cli_gov.out");
  std::remove(journal.c_str());
  *rc = run_cli("batch --manifest " + manifest + " --journal " + journal + " --mem-budget " +
                    mem_budget,
                out);
  if (summary != nullptr) {
    std::ifstream text(out);
    summary->assign(std::istreambuf_iterator<char>(text), std::istreambuf_iterator<char>());
  }
  std::remove(out.c_str());
  std::map<std::string, std::string> records;
  std::ifstream in(journal);
  for (std::string line; std::getline(in, line);)
    for (const char* id : {"e", "f", "m"})
      if (line.rfind(std::string("{\"job\":\"") + id + "\"", 0) == 0) records[id] = line;
  std::remove(manifest.c_str());
  std::remove(journal.c_str());
  return records;
}

TEST_F(CliParams, MemBudgetBetweenTheExactArenasDegradesFftAndRefusesMc) {
  int rc = 0;
  std::string summary;
  auto records = run_governed_batch(lib(), netlist400(), "20k", &rc, &summary);
  EXPECT_EQ(rc, 7);
  // A sub-MiB budget and charge are printed to the byte: the direct arena is
  // the peak.
  EXPECT_NE(summary.find("mem budget   : 20480 bytes (peak charged 12856 bytes)"),
            std::string::npos)
      << summary;
  EXPECT_NE(records["f"].find("\"method\":\"exact_direct\""), std::string::npos) << records["f"];
  EXPECT_NE(records["f"].find("\"degradation\":\"mem: exact_fft->exact_direct\""),
            std::string::npos)
      << records["f"];
  // The failed record embeds the error report as an escaped JSON string.
  EXPECT_NE(records["m"].find(R"("status":"failed")"), std::string::npos) << records["m"];
  // The budget is fixed for the run: refused once, as a config error.
  EXPECT_NE(records["m"].find(R"(\"error\":\"config\")"), std::string::npos) << records["m"];
  EXPECT_NE(records["m"].find(R"("attempts":1,)"), std::string::npos) << records["m"];
  EXPECT_NE(records["e"].find("\"method\":\"linear\""), std::string::npos) << records["e"];
  EXPECT_EQ(records["e"].find("degradation"), std::string::npos) << records["e"];
}

TEST_F(CliParams, MemBudgetOfOneMebibyteRunsTheFftJobAsAsked) {
  // 1 MiB holds the 33,280-byte FFT arena: no step down to the O(n^2) path.
  int rc = 0;
  auto records = run_governed_batch(lib(), netlist400(), "1m", &rc);
  EXPECT_EQ(rc, 0);
  EXPECT_NE(records["f"].find("\"method\":\"exact_fft\""), std::string::npos) << records["f"];
  EXPECT_EQ(records["f"].find("degradation"), std::string::npos) << records["f"];
  EXPECT_NE(records["m"].find("\"method\":\"mc\""), std::string::npos) << records["m"];
}

TEST_F(CliParams, BatchJournalsTheLadderTrail) {
  // Every rung above the integral floor is predicted over a microsecond
  // budget; under 20k the FFT arena does not fit either. The journal keeps
  // each note, in walk order.
  const std::string manifest = temp_path("rgleak_cli_trail.jsonl");
  const std::string journal = temp_path("rgleak_cli_trail.journal");
  std::ofstream(manifest)
      << "{\"id\":\"f\",\"kind\":\"netlist\",\"lib\":\"" << lib() << "\",\"netlist\":\""
      << netlist400() << "\",\"exact_method\":\"fft\",\"time_budget_s\":1e-6}\n"
      << "{\"id\":\"l\",\"kind\":\"estimate\",\"lib\":\"" << lib()
      << "\",\"usage\":\"INV_X1:1\",\"gates\":400,\"die_um\":\"30x30\",\"method\":\"linear\","
         "\"time_budget_s\":1e-7}\n";
  std::remove(journal.c_str());
  EXPECT_EQ(run_cli("batch --manifest " + manifest + " --journal " + journal +
                    " --mem-budget 20k"),
            0);
  std::ifstream in(journal);
  const std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(text.find(R"("degradation":"mem: exact_fft->exact_direct; exact_direct predicted )"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find(R"(; linear predicted )"), std::string::npos) << text;
  EXPECT_NE(text.find(R"("degradation":"linear predicted )"), std::string::npos) << text;
  std::remove(manifest.c_str());
  std::remove(journal.c_str());
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

TEST_F(CliParams, McReportsItsEmbeddingAndItsExactBias) {
  // The 64-gate design is 8x8 sites: its minimal 16x16 embedding is within
  // the tolerance, and the biases reach --metrics-json as ppm gauges.
  const std::string out = temp_path("rgleak_cli_mc_embedding.out");
  const std::string metrics = temp_path("rgleak_cli_mc_embedding.json");
  ASSERT_EQ(run_cli(mc() + " --metrics-json " + metrics, out), 0);
  std::ifstream text(out);
  const std::string stdout_text{std::istreambuf_iterator<char>(text),
                                std::istreambuf_iterator<char>()};
  EXPECT_NE(stdout_text.find("embedding    : 16x16 (exact bias: mean +5.45e-04, sigma +8.29e-04)\n"),
            std::string::npos)
      << stdout_text;
  std::ifstream in(metrics);
  std::string json;
  std::getline(in, json);
  for (const char* gauge :
       {"\"mc.embedding_cols\":16,", "\"mc.embedding_mean_bias_ppm\":545,",
        "\"mc.embedding_rows\":16,", "\"mc.embedding_sigma_bias_ppm\":829}"})
    EXPECT_NE(json.find(gauge), std::string::npos) << gauge << " in " << json;
  std::remove(out.c_str());
  std::remove(metrics.c_str());
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
