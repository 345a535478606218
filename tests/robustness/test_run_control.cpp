// Run control through the real call paths: cancellation latency through the
// thread pool under an injected per-task delay, the exact estimator draining
// within one chunk, and the budgeted estimator walking the degradation
// ladder. The *Concurrent* tests also run under TSan via
// scripts/tsan_check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "../test_util.h"
#include "core/cost_model.h"
#include "core/estimators.h"
#include "core/leakage_estimator.h"
#include "core/random_gate.h"
#include "netlist/random_circuit.h"
#include "placement/placement.h"
#include "util/error.h"
#include "util/failpoint.h"
#include "util/run_control.h"
#include "util/thread_pool.h"

namespace rgleak {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;
using util::FailpointAction;
using util::RunControl;
using util::ScopedFailpoint;
using util::StopReason;
using util::ThreadPool;

netlist::UsageHistogram test_usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[0] = 0.6;
  u.alphas[1] = 0.4;
  return u;
}

placement::Placement make_placement(const netlist::Netlist& nl, std::size_t rows,
                                    std::size_t cols) {
  placement::Floorplan fp;
  fp.rows = rows;
  fp.cols = cols;
  fp.site_w_nm = 1500.0;
  fp.site_h_nm = 1500.0;
  return placement::Placement(&nl, fp);
}

TEST(RunControlConcurrent, CancellationLatencyBoundedDespiteDelayedTasks) {
  // A task-level delay failpoint must not stall cancellation beyond one
  // chunk: workers finish the index they hold (delay included) and then see
  // the stop before claiming another.
  ThreadPool pool(3);
  RunControl run;
  const ScopedFailpoint fp("thread_pool.task", FailpointAction::kDelay, SIZE_MAX, 2);
  std::atomic<int> executed{0};
  std::thread stopper([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    run.request_stop();
  });
  EXPECT_THROW(
      pool.parallel_for(100000, [&](std::size_t) { executed.fetch_add(1); }, &run),
      DeadlineExceeded);
  stopper.join();
  // With ~2 ms per index and 3 workers, an unbounded drain would execute all
  // 100000 indices; one-chunk latency means only a handful ran.
  EXPECT_LT(executed.load(), 1000);
  EXPECT_EQ(run.reason(), StopReason::kCancelled);
}

TEST(RunControlConcurrent, ExactEstimatorDrainsWithinOneBatch) {
  // 64x64 sites: the FFT path runs row and column batches through the pool; a
  // pre-stopped control must cancel before any batch completes the job.
  math::Rng gen(31);
  const std::size_t rows = 64, cols = 64;
  const netlist::Netlist nl =
      generate_random_circuit(mini_library(), test_usage(), rows * cols, gen);
  const placement::Placement pl = make_placement(nl, rows, cols);
  const core::ExactEstimator exact(mini_chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);

  RunControl run;
  run.request_stop();
  core::ExactOptions opts;
  opts.threads = 3;
  opts.run = &run;
  EXPECT_THROW(exact.estimate(pl, opts), DeadlineExceeded);
}

TEST(RunControl, BudgetedEstimatorDegradesWhenCostModelSaysTooSlow) {
  math::Rng gen(32);
  const std::size_t rows = 24, cols = 24;
  const netlist::Netlist nl =
      generate_random_circuit(mini_library(), test_usage(), rows * cols, gen);
  const placement::Placement pl = make_placement(nl, rows, cols);
  const core::ExactEstimator exact(mini_chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  const core::RandomGate rg(mini_chars_analytic(), test_usage(), 0.5,
                            core::CorrelationMode::kAnalytic);

  // Generous budget: the exact rung fits and answers; no degradation.
  {
    const core::LeakageEstimate e = core::estimate_placed_budgeted(
        exact, rg, pl, 60.0, core::CostModel::defaults());
    EXPECT_TRUE(e.method == "exact_fft" || e.method == "exact_direct") << e.method;
    EXPECT_TRUE(e.degradation.empty()) << e.degradation;
  }

  // Microscopic budget: every predicted rung is over budget, so the O(1)
  // integral answers and the trail names each skipped rung.
  {
    const core::LeakageEstimate e = core::estimate_placed_budgeted(
        exact, rg, pl, 1e-7, core::CostModel::defaults());
    EXPECT_TRUE(e.method == "integral_polar" || e.method == "integral_rect") << e.method;
    EXPECT_NE(e.degradation.find("predicted"), std::string::npos) << e.degradation;
    EXPECT_NE(e.degradation.find("linear"), std::string::npos) << e.degradation;
    EXPECT_GT(e.mean_na, 0.0);
    EXPECT_GT(e.sigma_na, 0.0);
  }
}

TEST(RunControl, MispredictedRungIsCancelledAtDeadlineAndNextRungAnswers) {
  // Calibrate a lying cost model that claims the exact path is nearly free;
  // the armed deadline then cancels the rung mid-flight and the ladder moves
  // on, recording the misprediction.
  math::Rng gen(33);
  const std::size_t rows = 48, cols = 48;
  const netlist::Netlist nl =
      generate_random_circuit(mini_library(), test_usage(), rows * cols, gen);
  const placement::Placement pl = make_placement(nl, rows, cols);
  const core::ExactEstimator exact(mini_chars_analytic(), 0.5,
                                   core::CorrelationMode::kAnalytic);
  const core::RandomGate rg(mini_chars_analytic(), test_usage(), 0.5,
                            core::CorrelationMode::kAnalytic);

  core::CostModel lying = core::CostModel::defaults();
  lying.calibrate_ms("fft", rows * cols, 1e-12);
  lying.calibrate_ms("linear", rows * cols, 1e-12);
  // Delay every trial of the exact path so the 1 ms budget expires inside it.
  const ScopedFailpoint fp("thread_pool.task", FailpointAction::kDelay, SIZE_MAX, 2);
  const core::LeakageEstimate e =
      core::estimate_placed_budgeted(exact, rg, pl, 1e-3, lying);
  EXPECT_TRUE(e.method == "integral_polar" || e.method == "integral_rect") << e.method;
  EXPECT_NE(e.degradation.find("cancelled at deadline"), std::string::npos) << e.degradation;
}

TEST(RunControl, BudgetedEstimatorFacadeReportsMethodAndDegradation) {
  core::DesignCharacteristics d;
  d.usage = test_usage();
  d.gate_count = 5000;
  d.width_nm = 2.0e6;
  d.height_nm = 2.0e6;

  core::EstimatorConfig cfg;
  cfg.method = core::EstimationMethod::kLinear;
  cfg.time_budget_s = 1e-7;  // linear cannot fit; must degrade to integral
  const core::LeakageEstimator estimator(mini_chars_analytic(), cfg);
  const core::LeakageEstimate e = estimator.estimate(d);
  EXPECT_TRUE(e.method == "integral_polar" || e.method == "integral_rect") << e.method;
  EXPECT_NE(e.degradation.find("linear"), std::string::npos) << e.degradation;

  // Without a budget the same request runs the linear rung and reports it.
  cfg.time_budget_s = 0.0;
  const core::LeakageEstimator unbudgeted(mini_chars_analytic(), cfg);
  const core::LeakageEstimate full = unbudgeted.estimate(d);
  EXPECT_EQ(full.method, "linear");
  EXPECT_TRUE(full.degradation.empty());
}

TEST(RunControl, CharacterizersHonorStopRequests) {
  RunControl run;
  run.request_stop();
  charlib::AnalyticCharOptions aopts;
  aopts.run = &run;
  EXPECT_THROW(
      charlib::characterize_analytic(mini_library(), rgleak::testing::test_process(), aopts),
      DeadlineExceeded);
  charlib::McCharOptions mopts;
  mopts.samples = 100;
  mopts.run = &run;
  EXPECT_THROW(
      charlib::characterize_monte_carlo(mini_library(), rgleak::testing::test_process(), mopts),
      DeadlineExceeded);
}

}  // namespace
}  // namespace rgleak
