#include "core/connectivity_estimator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "../test_util.h"
#include "core/estimators.h"
#include "netlist/random_circuit.h"
#include "util/require.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

placement::Floorplan grid(std::size_t side) {
  placement::Floorplan fp;
  fp.rows = fp.cols = side;
  fp.site_w_nm = fp.site_h_nm = 1500.0;
  return fp;
}

netlist::UsageHistogram usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.5;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.5;
  return u;
}

// A DAG whose gates all see exactly p = 0.5 on every input: wire every input
// to primary-input nets only, with p = 0.5.
netlist::ConnectedNetlist inputs_only_dag(std::size_t n, math::Rng& rng) {
  const netlist::Netlist types =
      netlist::generate_random_circuit(mini_library(), usage(), n, rng);
  std::vector<netlist::ConnectedGate> gates;
  const std::size_t npi = 8;
  for (std::size_t g = 0; g < n; ++g) {
    netlist::ConnectedGate cg;
    cg.cell_index = types.gate(g).cell_index;
    const int k = mini_library().cell(cg.cell_index).num_inputs();
    for (int i = 0; i < k; ++i) cg.input_nets.push_back(rng.uniform_index(npi));
    gates.push_back(std::move(cg));
  }
  return netlist::ConnectedNetlist("pi-only", &mini_library(), npi, gates);
}

TEST(ConnectivityEstimator, MatchesGlobalPWhenAllInputsAtHalf) {
  // When every gate input sits at p = 0.5, the per-gate distributions equal
  // the global-p ones, so the connectivity-aware estimate must match the
  // global ExactEstimator.
  math::Rng rng(31);
  const std::size_t side = 12;
  const netlist::ConnectedNetlist nl = inputs_only_dag(side * side, rng);
  const placement::Floorplan fp = grid(side);

  const ConnectivityAwareEstimator aware(mini_chars_analytic(), CorrelationMode::kAnalytic);
  const LeakageEstimate e_aware = aware.estimate(nl, fp, 0.5);

  const netlist::Netlist flat = nl.flatten();
  const placement::Placement pl(&flat, fp);
  const ExactEstimator global(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate e_global = global.estimate(pl);

  EXPECT_NEAR(e_aware.mean_na, e_global.mean_na, 1e-6 * e_global.mean_na);
  EXPECT_NEAR(e_aware.sigma_na, e_global.sigma_na, 1e-3 * e_global.sigma_na);
}

TEST(ConnectivityEstimator, PropagationShiftsTheEstimate) {
  // A deep random DAG drifts net probabilities away from 0.5, so the aware
  // estimate differs from the global-p one (that difference is the point).
  math::Rng rng(33);
  const std::size_t side = 12;
  const netlist::ConnectedNetlist nl =
      netlist::generate_random_dag(mini_library(), usage(), side * side, 8, rng);
  const placement::Floorplan fp = grid(side);

  const ConnectivityAwareEstimator aware(mini_chars_analytic(), CorrelationMode::kAnalytic);
  const LeakageEstimate e_aware = aware.estimate(nl, fp, 0.5);

  const netlist::Netlist flat = nl.flatten();
  const placement::Placement pl(&flat, fp);
  const ExactEstimator global(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate e_global = global.estimate(pl);

  EXPECT_GT(std::abs(e_aware.mean_na - e_global.mean_na), 1e-4 * e_global.mean_na);
  // Same ballpark nonetheless (the paper's point that p matters little).
  EXPECT_NEAR(e_aware.mean_na, e_global.mean_na, 0.25 * e_global.mean_na);
}

TEST(ConnectivityEstimator, SimplifiedModeTracksAnalytic) {
  math::Rng rng(35);
  const std::size_t side = 10;
  const netlist::ConnectedNetlist nl =
      netlist::generate_random_dag(mini_library(), usage(), side * side, 8, rng);
  const placement::Floorplan fp = grid(side);
  const ConnectivityAwareEstimator analytic(mini_chars_analytic(), CorrelationMode::kAnalytic);
  const ConnectivityAwareEstimator simplified(mini_chars_analytic(),
                                              CorrelationMode::kSimplified);
  const LeakageEstimate ea = analytic.estimate(nl, fp, 0.5);
  const LeakageEstimate es = simplified.estimate(nl, fp, 0.5);
  EXPECT_NEAR(es.mean_na, ea.mean_na, 1e-9 * ea.mean_na);
  EXPECT_NEAR(es.sigma_na, ea.sigma_na, 0.06 * ea.sigma_na);
}

TEST(ConnectivityEstimator, ExtremeInputProbabilitiesPruneStates) {
  // p = 0 or 1 collapses every gate to a deterministic state chain; the
  // estimate must still be finite and positive.
  math::Rng rng(37);
  const netlist::ConnectedNetlist nl =
      netlist::generate_random_dag(mini_library(), usage(), 64, 4, rng);
  const ConnectivityAwareEstimator aware(mini_chars_analytic(), CorrelationMode::kAnalytic);
  for (double p : {0.0, 1.0}) {
    const LeakageEstimate e = aware.estimate(nl, grid(8), p);
    EXPECT_GT(e.mean_na, 0.0);
    EXPECT_GT(e.sigma_na, 0.0);
  }
}

TEST(ConnectivityEstimator, ConcurrentEstimatesAreSafe) {
  // estimate() only reads the estimator (its per-state Hermite series are
  // built in the constructor), so threads sharing a fresh estimator must
  // reproduce the serial answers bit for bit (run under TSan via
  // RGLEAK_SANITIZE=thread).
  math::Rng rng(41);
  const netlist::ConnectedNetlist nl =
      netlist::generate_random_dag(mini_library(), usage(), 64, 4, rng);
  const ConnectivityAwareEstimator serial(mini_chars_analytic(), CorrelationMode::kAnalytic);
  const double probs[] = {0.5, 0.3};
  const LeakageEstimate expected[] = {serial.estimate(nl, grid(8), probs[0]),
                                      serial.estimate(nl, grid(8), probs[1])};

  const ConnectivityAwareEstimator shared(mini_chars_analytic(), CorrelationMode::kAnalytic);
  std::vector<LeakageEstimate> results(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < results.size(); ++i)
    threads.emplace_back([&, i] { results[i] = shared.estimate(nl, grid(8), probs[i % 2]); });
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].sigma_na, expected[i % 2].sigma_na) << i;
    EXPECT_EQ(results[i].mean_na, expected[i % 2].mean_na) << i;
  }
}

TEST(ConnectivityEstimator, ContractChecks) {
  math::Rng rng(39);
  const netlist::ConnectedNetlist nl =
      netlist::generate_random_dag(mini_library(), usage(), 64, 4, rng);
  const ConnectivityAwareEstimator aware(mini_chars_analytic(), CorrelationMode::kAnalytic);
  EXPECT_THROW(aware.estimate(nl, grid(4), 0.5), ContractViolation);  // 16 < 64 sites
  EXPECT_THROW(aware.estimate(nl, grid(8), 1.5), ContractViolation);
  EXPECT_THROW(
      ConnectivityAwareEstimator(rgleak::testing::mini_chars_mc(), CorrelationMode::kAnalytic),
      ContractViolation);
}

}  // namespace
}  // namespace rgleak::core
