// Memory admission, priced by the arenas the engines reserve: the estimator
// ladder skips a rung whose arena does not fit (core::walk_ladder), an MC job
// halves its workers until FullChipMonteCarlo::arena_bytes fits
// (JobRunner), and the price of each job is, to the byte, the peak it
// charges to the process MemoryBudget.
//
// The design is 1024 gates on a 32x32 grid; every budget below sits on a
// boundary of the arena formulas (core/cost_model.h) at that size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <thread>

#include "charlib/io.h"
#include "core/cost_model.h"
#include "core/leakage_estimator.h"
#include "math/rng.h"
#include "mc/full_chip_mc.h"
#include "netlist/io.h"
#include "netlist/random_circuit.h"
#include "service/batch_runner.h"
#include "service/job_runner.h"
#include "test_util.h"
#include "util/error.h"
#include "util/memory.h"
#include "util/run_control.h"

namespace rgleak::service {
namespace {

using core::Rung;
using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

constexpr std::size_t kGates = 1024;
constexpr std::size_t kTrials = 10;

netlist::UsageHistogram usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[0] = 0.5;
  u.alphas[1] = 0.3;
  u.alphas[2] = 0.2;
  return u;
}

netlist::Netlist make_netlist() {
  math::Rng gen(41);
  return netlist::generate_random_circuit(mini_library(), usage(), kGates, gen);
}

// The placement a batch job builds for this netlist, and what its rungs read.
struct PlacedDesign {
  netlist::Netlist nl = make_netlist();
  placement::Placement pl{&nl, placement::Floorplan::for_gate_count(kGates)};
  core::RandomGate rg{mini_chars_analytic(), usage(), 0.5, core::CorrelationMode::kAnalytic};
  core::ExactEstimator exact{mini_chars_analytic(), 0.5, core::CorrelationMode::kAnalytic};

  std::uint64_t bytes(Rung rung) const { return core::rung_bytes(rung, kGates, pl.floorplan()); }
};

const PlacedDesign& design() {
  static const PlacedDesign d;
  return d;
}

core::LeakageEstimate walk(Rung requested, std::uint64_t budget) {
  const PlacedDesign& d = design();
  return core::walk_ladder({.rg = d.rg,
                            .fp = d.pl.floorplan(),
                            .exact = &d.exact,
                            .placement = &d.pl,
                            .exact_options = {.threads = 1},
                            .mem_budget_bytes = budget},
                           requested);
}

TEST(LadderAdmission, ArenasAreTheExactRungsOnly) {
  const placement::Floorplan& fp = design().pl.floorplan();
  ASSERT_EQ(fp.rows, 32u);
  ASSERT_EQ(fp.cols, 32u);
  EXPECT_EQ(design().bytes(Rung::kExactFft), core::CostModel::exact_fft_bytes(32, 32));
  EXPECT_EQ(design().bytes(Rung::kExactDirect), core::CostModel::exact_direct_bytes(kGates, 32, 32));
  EXPECT_GT(design().bytes(Rung::kExactFft), design().bytes(Rung::kExactDirect));
  for (const Rung cheap : {Rung::kLinear, Rung::kIntegralRect, Rung::kIntegralPolar})
    EXPECT_EQ(design().bytes(cheap), 0u) << core::rung_name(cheap);
}

TEST(LadderAdmission, UnlimitedBudgetRunsAsRequested) {
  const core::LeakageEstimate e = walk(Rung::kExactFft, 0);
  EXPECT_EQ(e.method, "exact_fft");
  EXPECT_TRUE(e.degradation.empty()) << e.degradation;
}

TEST(LadderAdmission, ArenaThatFitsExactlyIsNotDegraded) {
  const core::LeakageEstimate e = walk(Rung::kExactFft, design().bytes(Rung::kExactFft));
  EXPECT_EQ(e.method, "exact_fft");
  EXPECT_TRUE(e.degradation.empty()) << e.degradation;
}

TEST(LadderAdmission, WalksToFirstFittingRung) {
  // One byte short of the FFT arena: the direct path's smaller arena fits.
  const core::LeakageEstimate direct = walk(Rung::kExactFft, design().bytes(Rung::kExactFft) - 1);
  EXPECT_EQ(direct.method, "exact_direct");
  EXPECT_EQ(direct.degradation, "mem: exact_fft->exact_direct");

  // Short of both exact arenas: eq. (17) reserves nothing, so it always fits.
  for (const std::uint64_t budget : {design().bytes(Rung::kExactDirect) - 1, std::uint64_t{1}}) {
    const core::LeakageEstimate linear = walk(Rung::kExactFft, budget);
    EXPECT_EQ(linear.method, "linear") << budget;
    EXPECT_EQ(linear.degradation, "mem: exact_fft->linear") << budget;
  }
}

TEST(LadderAdmission, NeverUpgradesACheapRequest) {
  // The FFT arena would fit, but the walk starts at the requested rung.
  const core::LeakageEstimate direct =
      walk(Rung::kExactDirect, design().bytes(Rung::kExactFft));
  EXPECT_EQ(direct.method, "exact_direct");
  EXPECT_TRUE(direct.degradation.empty()) << direct.degradation;
  const core::LeakageEstimate linear = walk(Rung::kLinear, 1);
  EXPECT_EQ(linear.method, "linear");
  EXPECT_TRUE(linear.degradation.empty()) << linear.degradation;
}

TEST(LadderAdmission, StopsPropagateInsteadOfDegrading) {
  // A batch watchdog's deadline is not a budget of the walk: a walk under a
  // memory budget alone lets it through, as an unbudgeted job would.
  util::RunControl watchdog;
  watchdog.request_stop(util::StopReason::kDeadline);
  const PlacedDesign& d = design();
  core::Ladder ladder{.rg = d.rg,
                      .fp = d.pl.floorplan(),
                      .exact = &d.exact,
                      .placement = &d.pl,
                      .exact_options = {.threads = 1},
                      .mem_budget_bytes = d.bytes(Rung::kExactFft),
                      .run = &watchdog};
  EXPECT_THROW(core::walk_ladder(ladder, Rung::kExactFft), DeadlineExceeded);
  // An external cancellation (SIGINT) gets through a timed walk too.
  util::RunControl sigint;
  sigint.request_stop(util::StopReason::kCancelled);
  ladder.time_budget_s = 60.0;
  ladder.run = &sigint;
  EXPECT_THROW(core::walk_ladder(ladder, Rung::kExactFft), DeadlineExceeded);
}

// The embedding an MC job on the design draws on (the jobs run at the
// default signal probability, 0.5).
const mc::McEmbedding& mc_embedding() {
  static const mc::McEmbedding e =
      mc::FullChipMonteCarlo::choose_embedding(design().pl, mini_chars_analytic(), 0.5, 1);
  return e;
}

std::uint64_t mc_bytes(std::size_t threads) {
  return mc::FullChipMonteCarlo::arena_bytes(design().pl, mc_embedding(), kTrials, threads);
}

// The library and netlist files a batch job names, written once.
struct JobFiles {
  std::string lib = std::string(::testing::TempDir()) + "rgleak_admission_lib.rgchar";
  std::string nl = std::string(::testing::TempDir()) + "rgleak_admission.rgnl";

  JobFiles() {
    charlib::save_characterization(mini_chars_analytic(), lib);
    netlist::save_netlist(design().nl, nl);
  }
  ~JobFiles() {
    std::remove(lib.c_str());
    std::remove(nl.c_str());
  }
};

JobSpec job(const char* kind, std::map<std::string, std::string> params) {
  static const JobFiles files;
  JobSpec spec;
  spec.id = kind;
  spec.kind = kind;
  spec.params = std::move(params);
  spec.params["lib"] = files.lib;
  spec.params["netlist"] = files.nl;
  return spec;
}

JobSpec mc_job(std::size_t threads) {
  return job("mc", {{"trials", std::to_string(kTrials)}, {"threads", std::to_string(threads)}});
}

// Runs `spec` alone through the production runner, admitted against
// `budget` bytes (0 = unlimited) with no process-wide limit; `peak` gets the
// bytes the job charged to the process MemoryBudget.
JobOutput run_alone(const JobSpec& spec, std::uint64_t budget, std::uint64_t* peak) {
  util::MemoryBudget& mem = util::MemoryBudget::process();
  mem.set_limit(0);
  EXPECT_EQ(mem.reserved(), 0u);
  mem.reset_peak();
  JobRunner runner(mini_library());
  runner.set_mem_budget(budget);
  const JobOutput out = runner.execute(spec, nullptr, 0);
  *peak = mem.peak();
  return out;
}

TEST(AdmitMc, ArenaIsTheEmbeddingOncePlusWorkersTimesTheWorkerArenaPlusTheSamples) {
  // The workers share one embedding, so it is charged once, not per worker.
  const std::size_t rows = mc_embedding().padded_rows, cols = mc_embedding().padded_cols;
  const std::uint64_t shared = core::CostModel::mc_embedding_bytes(rows, cols, 32, 32);
  const std::uint64_t worker = core::CostModel::mc_worker_bytes(rows, cols, 32, 32, kGates);
  EXPECT_EQ(mc_bytes(2) - mc_bytes(1), worker);
  EXPECT_EQ(mc_bytes(1), shared + worker + kTrials * sizeof(double));
  EXPECT_EQ(mc_bytes(8), shared + 8 * worker + kTrials * sizeof(double));
}

TEST(AdmitMc, UnlimitedBudgetPreservesThreadsIncludingAuto) {
  std::uint64_t peak = 0;
  EXPECT_TRUE(run_alone(mc_job(8), 0, &peak).degradation.empty());
  EXPECT_EQ(peak, mc_bytes(8));
  run_alone(mc_job(0), 0, &peak);
  EXPECT_EQ(peak, mc_bytes(std::max(1u, std::thread::hardware_concurrency())))
      << "0 = hw concurrency must survive";
}

TEST(AdmitMc, HalvesWorkersUntilTheyFit) {
  for (const std::uint64_t budget : {mc_bytes(2), mc_bytes(4) - 1}) {
    std::uint64_t peak = 0;
    EXPECT_EQ(run_alone(mc_job(8), budget, &peak).degradation, "mem: mc threads 8->2") << budget;
    EXPECT_EQ(peak, mc_bytes(2)) << budget;
  }
}

TEST(AdmitMc, FittingRequestIsNotDegraded) {
  std::uint64_t peak = 0;
  const JobOutput out = run_alone(mc_job(4), mc_bytes(4), &peak);
  EXPECT_TRUE(out.degradation.empty()) << out.degradation;
  EXPECT_EQ(peak, mc_bytes(4));
}

TEST(AdmitMc, AutoThreadsResolveToOneUnderPressure) {
  // threads=0 enters the halving as 1 worker; with room for one it is
  // admitted pinned at 1 (auto would over-subscribe the budget).
  std::uint64_t peak = 0;
  run_alone(mc_job(0), mc_bytes(1), &peak);
  EXPECT_EQ(peak, mc_bytes(1));
}

TEST(AdmitMc, SingleWorkerMissIsTypedRejection) {
  // The budget cannot grow during a run, so the refusal is a configuration
  // error (never retried), not transient resource pressure.
  std::uint64_t peak = 0;
  try {
    run_alone(mc_job(4), mc_bytes(1) - 1, &peak);
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kConfig);
    EXPECT_NE(std::string(e.what()).find("single worker"), std::string::npos) << e.what();
  }
  // Choosing the embedding ran exact FFT estimates of the 32x32 design, each
  // charging its arena; the refusal came before the run reserved anything.
  EXPECT_EQ(util::MemoryBudget::process().peak(), core::CostModel::exact_fft_bytes(32, 32))
      << "refused before reserving the run's arena";
}

TEST(AdmitMc, BatchJournalsTheRefusalAfterOneAttempt) {
  util::MemoryBudget::process().set_limit(0);
  JobRunner runner(mini_library());
  runner.set_mem_budget(mc_bytes(1) - 1);
  Journal journal = Journal::open("");
  BatchOptions opts;
  opts.retry.max_attempts = 3;
  opts.retry.backoff.base_ms = 0.0;
  opts.isolate = ExecIsolation::kInProcess;
  const BatchSummary s = run_batch({mc_job(4)}, runner, journal, opts);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.retries, 0u);
  const JobRecord rec = journal.records().at("mc");
  EXPECT_EQ(rec.attempts, 1);
  EXPECT_NE(rec.error.find("\"error\":\"config\""), std::string::npos) << rec.error;
  const std::string json = journal_record_json(rec);
  EXPECT_NE(json.find("\"attempts\":1"), std::string::npos) << json;
}

TEST(CostModel, StructuralFormulasAreMonotonicInProblemSize) {
  using core::CostModel;
  EXPECT_LT(CostModel::exact_direct_bytes(100, 10, 10), CostModel::exact_direct_bytes(1000, 32, 32));
  EXPECT_LT(CostModel::exact_fft_bytes(8, 8), CostModel::exact_fft_bytes(32, 32));
  EXPECT_LT(CostModel::mc_worker_bytes(16, 16, 8, 8, 100),
            CostModel::mc_worker_bytes(64, 64, 32, 32, 1000));
}

// Each job's price is, to the byte, the peak it charges running alone.
TEST(Admission, PriceIsTheBytesEachJobCharges) {
  const struct {
    const char* name;
    JobSpec spec;
    std::uint64_t price;
  } cases[] = {
      {"exact_fft", job("netlist", {{"exact_method", "fft"}}), design().bytes(Rung::kExactFft)},
      {"exact_direct", job("netlist", {{"exact_method", "direct"}}),
       design().bytes(Rung::kExactDirect)},
      {"mc", mc_job(2), mc_bytes(2)},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    std::uint64_t peak = 0;
    EXPECT_EQ(run_alone(c.spec, 0, &peak).method, c.name);
    EXPECT_EQ(peak, c.price);
  }
}

}  // namespace
}  // namespace rgleak::service
