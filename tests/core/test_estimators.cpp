#include "core/estimators.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <thread>

#include "../test_util.h"
#include "math/stats.h"
#include "netlist/random_circuit.h"
#include "util/metrics.h"
#include "util/require.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_chars_analytic;
using rgleak::testing::mini_library;

netlist::UsageHistogram test_usage() {
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.5;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.3;
  u.alphas[mini_library().index_of("NOR2_X1")] = 0.2;
  return u;
}

RandomGate test_rg(double p = 0.5) {
  return RandomGate(mini_chars_analytic(), test_usage(), p, CorrelationMode::kAnalytic);
}

placement::Floorplan grid(std::size_t rows, std::size_t cols, double pitch = 1500.0) {
  placement::Floorplan fp;
  fp.rows = rows;
  fp.cols = cols;
  fp.site_w_nm = pitch;
  fp.site_h_nm = pitch;
  return fp;
}

// Brute-force evaluation of eq. (15): the full pairwise double sum over sites.
double brute_force_variance(const RandomGate& rg, const placement::Floorplan& fp) {
  double var = 0.0;
  const std::size_t n = fp.num_sites();
  for (std::size_t a = 0; a < n; ++a) {
    const double xa = fp.site_x_nm(a % fp.cols), ya = fp.site_y_nm(a / fp.cols);
    for (std::size_t b = 0; b < n; ++b) {
      const double xb = fp.site_x_nm(b % fp.cols), yb = fp.site_y_nm(b / fp.cols);
      var += rg.covariance_at_distance(std::hypot(xa - xb, ya - yb));
    }
  }
  return var;
}

TEST(LinearEstimator, ExactlyMatchesBruteForcePairSum) {
  // Eq. (17) is an exact transformation of eq. (15); verify to rounding.
  const RandomGate rg = test_rg();
  for (const auto& fp : {grid(4, 4), grid(3, 7), grid(1, 9), grid(8, 2)}) {
    const LeakageEstimate e = estimate_linear(rg, fp);
    const double brute = brute_force_variance(rg, fp);
    EXPECT_NEAR(e.sigma_na * e.sigma_na, brute, 1e-9 * brute)
        << fp.rows << "x" << fp.cols;
    EXPECT_NEAR(e.mean_na, static_cast<double>(fp.num_sites()) * rg.mean_na(),
                1e-9 * e.mean_na);
  }
}

TEST(LinearEstimator, VarianceBetweenIndependentAndFullyCorrelatedLimits) {
  const RandomGate rg = test_rg();
  const placement::Floorplan fp = grid(10, 10);
  const double n = 100.0;
  const LeakageEstimate e = estimate_linear(rg, fp);
  const double var = e.sigma_na * e.sigma_na;
  EXPECT_GT(var, n * rg.variance_na2());        // more than independent sum
  EXPECT_LT(var, n * n * rg.variance_na2());    // less than perfectly correlated
}

TEST(LinearEstimator, WiderDieDecorrelates) {
  // Same gate count, bigger die -> smaller total sigma (correlation decays).
  const RandomGate rg = test_rg();
  const LeakageEstimate tight = estimate_linear(rg, grid(10, 10, 500.0));
  const LeakageEstimate wide = estimate_linear(rg, grid(10, 10, 20000.0));
  EXPECT_LT(wide.sigma_na, tight.sigma_na);
}

TEST(IntegralRect, ConvergesToLinearForLargeGrids) {
  // Fig. 7 behaviour: error < 1% already at ~10^3-10^4 gates, improving with n.
  const RandomGate rg = test_rg();
  const LeakageEstimate lin = estimate_linear(rg, grid(50, 50));
  const LeakageEstimate rect = estimate_integral_rect(rg, grid(50, 50));
  EXPECT_NEAR(rect.sigma_na, lin.sigma_na, 0.01 * lin.sigma_na);
  EXPECT_DOUBLE_EQ(rect.mean_na, lin.mean_na);
}

TEST(IntegralRect, SmallGridsShowGranularityError) {
  const RandomGate rg = test_rg();
  const LeakageEstimate lin = estimate_linear(rg, grid(5, 5));
  const LeakageEstimate rect = estimate_integral_rect(rg, grid(5, 5));
  const double err = std::abs(rect.sigma_na - lin.sigma_na) / lin.sigma_na;
  // Some visible error at 25 gates, but not absurd.
  EXPECT_LT(err, 0.2);
}

TEST(IntegralPolar, MatchesRectWhenValid) {
  // Make the die much larger than the WID range so the polar path engages.
  const RandomGate rg = test_rg();  // test process: 20 um correlation length
  const placement::Floorplan fp = grid(60, 60, 1.0e4);  // 600 um die
  bool used_polar = false;
  const LeakageEstimate polar = estimate_integral_polar(rg, fp, {}, &used_polar);
  EXPECT_TRUE(used_polar);
  const LeakageEstimate rect = estimate_integral_rect(rg, fp);
  EXPECT_NEAR(polar.sigma_na, rect.sigma_na, 0.01 * rect.sigma_na);
}

TEST(IntegralPolar, FallsBackWhenRangeExceedsDie) {
  const RandomGate rg = test_rg();
  const placement::Floorplan fp = grid(10, 10, 1000.0);  // 10 um die << range
  bool used_polar = true;
  const LeakageEstimate polar = estimate_integral_polar(rg, fp, {}, &used_polar);
  EXPECT_FALSE(used_polar);
  const LeakageEstimate rect = estimate_integral_rect(rg, fp);
  EXPECT_DOUBLE_EQ(polar.sigma_na, rect.sigma_na);
}

TEST(ExactEstimator, SingleTypeDesignMatchesLinearEstimator) {
  // A design of identical gates on the full grid == the RG array with a
  // single-cell histogram, so the exact O(n^2) sum and eq. (17) must agree.
  netlist::UsageHistogram usage;
  usage.alphas.assign(mini_library().size(), 0.0);
  usage.alphas[mini_library().index_of("INV_X1")] = 1.0;

  const std::size_t rows = 9, cols = 9;
  std::vector<netlist::GateInstance> gates(rows * cols,
                                           {mini_library().index_of("INV_X1")});
  const netlist::Netlist nl("uniform", &mini_library(), gates);
  const placement::Placement pl(&nl, grid(rows, cols));

  const ExactEstimator exact(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate e_exact = exact.estimate(pl);

  const RandomGate rg(mini_chars_analytic(), usage, 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate e_lin = estimate_linear(rg, grid(rows, cols));

  EXPECT_NEAR(e_exact.mean_na, e_lin.mean_na, 1e-9 * e_lin.mean_na);
  EXPECT_NEAR(e_exact.sigma_na, e_lin.sigma_na, 5e-3 * e_lin.sigma_na);
}

TEST(ExactEstimator, TypeCovarianceEndpoints) {
  const ExactEstimator exact(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const std::size_t inv = mini_library().index_of("INV_X1");
  const std::size_t nand = mini_library().index_of("NAND2_X1");
  EXPECT_NEAR(exact.type_covariance(inv, nand, 0.0), 0.0,
              1e-3 * exact.type_covariance(inv, nand, 1.0));
  EXPECT_GT(exact.type_covariance(inv, nand, 1.0), 0.0);
  // Symmetry.
  EXPECT_NEAR(exact.type_covariance(inv, nand, 0.7), exact.type_covariance(nand, inv, 0.7),
              1e-9 * exact.type_covariance(inv, nand, 0.7));
  EXPECT_THROW(exact.type_covariance(inv, nand, 1.5), ContractViolation);
  EXPECT_THROW(exact.type_covariance(99, nand, 0.5), ContractViolation);
}

TEST(ExactEstimator, SimplifiedModeCovariance) {
  // rho_mn = rho_L applies to the process-variation component: the simplified
  // covariance uses the state-weighted process sigma, not the state-mixed
  // total sigma.
  const ExactEstimator exact(mini_chars_analytic(), 0.5, CorrelationMode::kSimplified);
  const std::size_t inv = mini_library().index_of("INV_X1");
  const auto sp = mini_chars_analytic().state_probabilities(inv, 0.5);
  double proc_sigma = 0.0;
  for (std::size_t s = 0; s < sp.size(); ++s)
    proc_sigma += sp[s] * mini_chars_analytic().cell(inv).states[s].sigma_na;
  EXPECT_NEAR(exact.type_covariance(inv, inv, 0.5), 0.5 * proc_sigma * proc_sigma,
              1e-9 * proc_sigma * proc_sigma);
}

TEST(ExactEstimator, SimplifiedModeTracksAnalyticOnPlacedDesign) {
  // With the process-sigma fix, the simplified map should stay within a few
  // percent of the exact f_{m,n} mapping (section 3.1.2's claim) even at the
  // level of a specific placed design.
  math::Rng rng(55);
  const std::size_t side = 16;
  const netlist::Netlist nl =
      generate_random_circuit(mini_library(), test_usage(), side * side, rng);
  const placement::Placement pl(&nl, grid(side, side));
  const ExactEstimator analytic(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const ExactEstimator simplified(mini_chars_analytic(), 0.5, CorrelationMode::kSimplified);
  const LeakageEstimate ea = analytic.estimate(pl);
  const LeakageEstimate es = simplified.estimate(pl);
  EXPECT_NEAR(es.mean_na, ea.mean_na, 1e-9 * ea.mean_na);
  EXPECT_NEAR(es.sigma_na, ea.sigma_na, 0.05 * ea.sigma_na);
}

TEST(ExactEstimator, RandomDesignsConvergeToRgEstimate) {
  // The thesis of the paper (Fig. 6): designs sharing the high-level
  // characteristics have ~the same leakage statistics as the RG model.
  const netlist::UsageHistogram usage = test_usage();
  const std::size_t rows = 30, cols = 30;
  const RandomGate rg = test_rg();
  const LeakageEstimate model = estimate_linear(rg, grid(rows, cols));

  const ExactEstimator exact(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  math::Rng rng(11);
  for (int trial = 0; trial < 3; ++trial) {
    const netlist::Netlist nl =
        generate_random_circuit(mini_library(), usage, rows * cols, rng);
    const placement::Placement pl(&nl, grid(rows, cols));
    const LeakageEstimate e = exact.estimate(pl);
    EXPECT_NEAR(e.mean_na, model.mean_na, 0.02 * model.mean_na);
    EXPECT_NEAR(e.sigma_na, model.sigma_na, 0.03 * model.sigma_na);
  }
}

TEST(ExactEstimator, FftPathMatchesDirectPath) {
  // The FFT offset histogram is an exact transformation of the pairwise sum:
  // both paths must agree to rounding for mixed cell types in both
  // correlation modes, on square, oblong and degenerate (1-row) grids.
  math::Rng rng(77);
  for (const CorrelationMode mode :
       {CorrelationMode::kAnalytic, CorrelationMode::kSimplified}) {
    const ExactEstimator est(mini_chars_analytic(), 0.5, mode);
    for (const auto& fp : {grid(6, 6), grid(5, 9), grid(1, 17), grid(12, 7)}) {
      const netlist::Netlist nl = generate_random_circuit(
          mini_library(), test_usage(), fp.num_sites(), rng);
      const placement::Placement pl(&nl, fp);
      const LeakageEstimate direct = est.estimate(pl, {ExactMethod::kDirect, 1});
      const LeakageEstimate fft = est.estimate(pl, {ExactMethod::kFft, 1});
      EXPECT_NEAR(fft.sigma_na, direct.sigma_na, 1e-9 * direct.sigma_na)
          << fp.rows << "x" << fp.cols << " mode=" << static_cast<int>(mode);
      EXPECT_NEAR(fft.mean_na, direct.mean_na, 1e-12 * direct.mean_na);
    }
  }
}

TEST(ExactEstimator, DeterministicAcrossThreadCounts) {
  // Fixed tiling + fixed-order reduction: the thread count must not change a
  // single bit of the result, for either path.
  math::Rng rng(78);
  const std::size_t side = 12;
  const netlist::Netlist nl =
      generate_random_circuit(mini_library(), test_usage(), side * side, rng);
  const placement::Placement pl(&nl, grid(side, side));
  const ExactEstimator est(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  for (const ExactMethod method : {ExactMethod::kDirect, ExactMethod::kFft}) {
    const LeakageEstimate one = est.estimate(pl, {method, 1});
    const LeakageEstimate eight = est.estimate(pl, {method, 8});
    EXPECT_DOUBLE_EQ(one.sigma_na, eight.sigma_na) << static_cast<int>(method);
    EXPECT_DOUBLE_EQ(one.mean_na, eight.mean_na);
  }
}

TEST(ExactEstimator, FftTransformCountFollowsTheSeriesOrderNotTheTypeCount) {
  // Two orders share one packed forward and one inverse transform, so an
  // estimate runs 2 ceil(K / 2) transforms for the highest series order K of
  // its placed types: ten types cost what their highest-order type alone
  // costs.
  const charlib::CharacterizedLibrary& chars = rgleak::testing::full_chars_analytic();
  const double mu = chars.process().length().mean_nm;
  const double sigma = chars.process().length().sigma_total_nm();
  const auto type_order = [&](std::size_t t) {
    const std::vector<double> probs = chars.state_probabilities(t, 0.5);
    std::size_t order = 0;
    for (std::size_t s = 0; s < probs.size(); ++s) {
      const charlib::StateChar& st = chars.cell(t).states[s];
      if (probs[s] != 0.0)
        order = std::max(order, charlib::hermite_series(*st.model, st.mean_na, mu, sigma).order());
    }
    return order;
  };
  netlist::UsageHistogram usage;
  usage.alphas.assign(chars.size(), 0.0);
  std::size_t order = 0, top = 0;
  for (std::size_t t = 0; t < 60; t += 6) {
    usage.alphas[t] = 0.1;
    if (type_order(t) > order) {
      order = type_order(t);
      top = t;
    }
  }
  ASSERT_GE(order, 8u);
  const std::uint64_t expected = 2 * ((order + 1) / 2);

  util::metrics::Counter& transforms =
      util::metrics::Registry::instance().counter("estimator.exact_fft_transforms");
  const ExactEstimator est(chars, 0.5, CorrelationMode::kAnalytic);
  const std::size_t side = 12;
  math::Rng rng(83);
  const netlist::Netlist mixed =
      generate_random_circuit(chars.library(), usage, side * side, rng);
  const std::vector<netlist::GateInstance> one(side * side, {top});
  const netlist::Netlist single("single", &chars.library(), one);
  for (const netlist::Netlist* nl : {&mixed, &single}) {
    const placement::Placement pl(nl, grid(side, side));
    const std::uint64_t before = transforms.value();
    (void)est.estimate(pl, {ExactMethod::kFft, 2});
    EXPECT_EQ(transforms.value() - before, expected) << nl->name() << ", K = " << order;
  }
}

TEST(ExactEstimator, AutoSelectionMatchesExplicitMethods) {
  math::Rng rng(79);
  const netlist::Netlist nl = generate_random_circuit(mini_library(), test_usage(), 100, rng);
  const placement::Placement pl(&nl, grid(10, 10));
  const ExactEstimator est(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate autod = est.estimate(pl);
  const LeakageEstimate direct = est.estimate(pl, {ExactMethod::kDirect, 1});
  EXPECT_NEAR(autod.sigma_na, direct.sigma_na, 1e-9 * direct.sigma_na);
}

TEST(ExactEstimator, ConcurrentEstimatesAreSafe) {
  // The estimator is immutable after construction: a fresh analytic
  // estimator hammered by concurrent estimate() calls on both paths must
  // agree with the serial answer (run under TSan via RGLEAK_SANITIZE=thread).
  math::Rng rng(81);
  const std::size_t side = 8;
  const netlist::Netlist nl =
      generate_random_circuit(mini_library(), test_usage(), side * side, rng);
  const placement::Placement pl(&nl, grid(side, side));
  const ExactEstimator warm(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  const LeakageEstimate expected = warm.estimate(pl, {ExactMethod::kDirect, 1});

  const ExactEstimator cold(mini_chars_analytic(), 0.5, CorrelationMode::kAnalytic);
  std::vector<LeakageEstimate> results(4);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < results.size(); ++i)
    threads.emplace_back([&, i] {
      results[i] = cold.estimate(pl, {i % 2 == 0 ? ExactMethod::kDirect : ExactMethod::kFft, 2});
    });
  for (auto& t : threads) t.join();
  for (const LeakageEstimate& r : results)
    EXPECT_NEAR(r.sigma_na, expected.sigma_na, 1e-9 * expected.sigma_na);
}

TEST(VtMeanFactor, LognormalFormula) {
  process::VtVariation vt;
  vt.sigma_v = 0.03;
  device::TechnologyParams tech;
  const double z = 0.03 / (tech.subthreshold_n * tech.thermal_vt_v);
  EXPECT_NEAR(vt_mean_factor(vt, tech), std::exp(0.5 * z * z), 1e-12);
  // No Vt variation -> no correction.
  vt.sigma_v = 0.0;
  EXPECT_DOUBLE_EQ(vt_mean_factor(vt, tech), 1.0);
}

TEST(VtMeanFactor, MatchesMonteCarloCellLeakage) {
  // The multiplicative factor is the mean of exp(-dVt/(n vT)); validate
  // against sampling.
  process::VtVariation vt;
  vt.sigma_v = 0.025;
  device::TechnologyParams tech;
  math::Rng rng(3);
  math::RunningStats acc;
  const double nvt = tech.subthreshold_n * tech.thermal_vt_v;
  for (int i = 0; i < 500000; ++i) acc.add(std::exp(-rng.normal(0.0, vt.sigma_v) / nvt));
  EXPECT_NEAR(vt_mean_factor(vt, tech), acc.mean(), 0.005 * acc.mean());
}

}  // namespace
}  // namespace rgleak::core
