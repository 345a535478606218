// Memory admission: ladder walks, MC worker tiling, floor rejections.
//
// Uses the default CostModel byte coefficients, which at 1024 sites order
// the rungs exact_fft (8 MiB) > exact_direct (256 KiB) > linear (64 KiB) >
// integral_polar (32 KiB) — each budget below picks out one boundary.

#include <gtest/gtest.h>

#include "core/cost_model.h"
#include "service/admission.h"
#include "util/error.h"

namespace rgleak::service {
namespace {

constexpr std::size_t kSites = 1024;

ResourceGovernor governor(std::uint64_t budget) {
  ResourceGovernor gov;
  gov.mem_budget_bytes = budget;
  return gov;
}

TEST(AdmitEstimate, UnlimitedBudgetRunsAsRequested) {
  const Admission adm = admit_estimate(governor(0), kSites, "exact_fft");
  EXPECT_EQ(adm.method, "exact_fft");
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitEstimate, FittingRequestIsNotDegraded) {
  const Admission adm = admit_estimate(governor(16u << 20), kSites, "exact_fft");
  EXPECT_EQ(adm.method, "exact_fft");
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitEstimate, WalksToFirstFittingRung) {
  // 1 MiB: too small for the FFT rung, plenty for direct.
  const Admission direct = admit_estimate(governor(1u << 20), kSites, "exact_fft");
  EXPECT_EQ(direct.method, "exact_direct");
  EXPECT_EQ(direct.degradation, "mem: exact_fft->exact_direct");

  // 128 KiB: skips fft and direct, lands on linear.
  const Admission linear = admit_estimate(governor(128u << 10), kSites, "exact_fft");
  EXPECT_EQ(linear.method, "linear");
  EXPECT_EQ(linear.degradation, "mem: exact_fft->linear");

  // 48 KiB: only the integral floor fits.
  const Admission polar = admit_estimate(governor(48u << 10), kSites, "exact_fft");
  EXPECT_EQ(polar.method, "integral_polar");
  EXPECT_EQ(polar.degradation, "mem: exact_fft->integral_polar");
}

TEST(AdmitEstimate, NeverUpgradesACheapRequest) {
  // linear fits and so would exact_direct, but the walk starts at the
  // requested rung — a cheap request stays cheap.
  const Admission adm = admit_estimate(governor(16u << 20), kSites, "linear");
  EXPECT_EQ(adm.method, "linear");
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitEstimate, FloorMissIsTypedRejection) {
  try {
    admit_estimate(governor(16u << 10), kSites, "exact_fft");
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResource);
    EXPECT_NE(std::string(e.what()).find("integral_polar"), std::string::npos) << e.what();
  }
}

TEST(AdmitEstimate, OffLadderMethodIsCheckFitOnly) {
  const Admission fits = admit_estimate(governor(64u << 10), kSites, "integral_rect");
  EXPECT_EQ(fits.method, "integral_rect");
  EXPECT_TRUE(fits.degradation.empty());
  EXPECT_THROW(admit_estimate(governor(16u << 10), kSites, "integral_rect"), ResourceError);
}

TEST(AdmitEstimate, CalibratedModelTightensAdmission) {
  // A calibration observation 4x the default makes the FFT rung too big for
  // a budget the default model would have admitted.
  ResourceGovernor gov = governor(16u << 20);
  gov.costs.calibrate_bytes("fft", kSites, 64ull << 20);  // bench name maps to exact_fft
  const Admission adm = admit_estimate(gov, kSites, "exact_fft");
  EXPECT_EQ(adm.method, "exact_direct");
}

TEST(AdmitMc, UnlimitedBudgetPreservesThreadsIncludingAuto) {
  EXPECT_EQ(admit_mc(governor(0), kSites, 8).threads, 8u);
  EXPECT_EQ(admit_mc(governor(0), kSites, 0).threads, 0u) << "0 = hw concurrency must survive";
}

TEST(AdmitMc, HalvesWorkersUntilTheyFit) {
  // Per-worker prediction at 1024 sites: 4 MiB. A 9 MiB budget fits 2.
  const Admission adm = admit_mc(governor(9u << 20), kSites, 8);
  EXPECT_EQ(adm.method, "mc");
  EXPECT_EQ(adm.threads, 2u);
  EXPECT_EQ(adm.degradation, "mem: mc threads 8->2");
}

TEST(AdmitMc, FittingRequestIsNotDegraded) {
  const Admission adm = admit_mc(governor(64u << 20), kSites, 4);
  EXPECT_EQ(adm.threads, 4u);
  EXPECT_TRUE(adm.degradation.empty());
}

TEST(AdmitMc, AutoThreadsResolveToOneUnderPressure) {
  // threads=0 enters the ladder as 1 worker; with room for one it is
  // admitted pinned at 1 (auto would over-subscribe the budget).
  const Admission adm = admit_mc(governor(5u << 20), kSites, 0);
  EXPECT_EQ(adm.threads, 1u);
}

TEST(AdmitMc, SingleWorkerMissIsTypedRejection) {
  try {
    admit_mc(governor(1u << 20), kSites, 4);
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResource);
    EXPECT_NE(std::string(e.what()).find("single worker"), std::string::npos) << e.what();
  }
}

TEST(CostModel, StructuralFormulasAreMonotonicInProblemSize) {
  using core::CostModel;
  EXPECT_LT(CostModel::exact_direct_bytes(100, 10, 10), CostModel::exact_direct_bytes(1000, 32, 32));
  EXPECT_LT(CostModel::exact_fft_bytes(8, 8), CostModel::exact_fft_bytes(32, 32));
  EXPECT_LT(CostModel::mc_worker_bytes(16, 16, 8, 8, 100),
            CostModel::mc_worker_bytes(64, 64, 32, 32, 1000));
}

TEST(CostModel, UnknownMethodPredictsUnaffordable) {
  const core::CostModel m = core::CostModel::defaults();
  EXPECT_EQ(m.predict_bytes("no_such_method", kSites),
            std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
}  // namespace rgleak::service
