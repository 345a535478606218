// Numeric guardrails: the math and sampling layers must refuse non-PSD
// correlation structures, overflowing models, and ill-conditioned fits with
// NumericalErrors that carry enough diagnostics to act on — not NaNs, infs,
// or bare asserts.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "../test_util.h"
#include "math/gaussian_moments.h"
#include "math/linalg.h"
#include "math/mgf.h"
#include "math/polyfit.h"
#include "process/field_sampler.h"
#include "util/error.h"

namespace rgleak {
namespace {

using rgleak::testing::test_process;

// An oscillating "correlation" that is not positive semi-definite over 2-D
// site sets: rho(0) = 1 but nearby sites are strongly anti-correlated, which
// no valid isotropic kernel allows at this density.
class BogusCorrelation final : public process::SpatialCorrelation {
 public:
  double operator()(double d) const override { return d == 0.0 ? 1.0 : -0.9; }
  double range_nm() const override { return 1e6; }
  std::string name() const override { return "bogus"; }
};

TEST(Guardrails, CholeskyReportsPivotDiagnostics) {
  math::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = a(1, 0) = 2.0;  // determinant -3: indefinite
  a(1, 1) = 1.0;
  try {
    (void)math::cholesky(a);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("pivot 1"), std::string::npos) << what;
    EXPECT_NE(what.find("2x2"), std::string::npos) << what;
  }
}

TEST(Guardrails, LeastSquaresReportsCondition) {
  math::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1e-9;
  math::LeastSquaresInfo info;
  (void)math::solve_least_squares(a, {1.0, 1.0}, &info);
  EXPECT_NEAR(info.condition, 1e9, 1e3);
}

TEST(Guardrails, PolyfitReportsCondition) {
  // A healthy centered fit is well conditioned...
  math::PolyfitInfo good;
  (void)math::polyfit({-1.0, 0.0, 1.0, 2.0}, {1.0, 0.0, 1.0, 4.0}, 2, &good);
  EXPECT_GE(good.condition, 1.0);
  EXPECT_LT(good.condition, 1e3);
  // ...while clustered abscissae far from zero are numerically hopeless.
  math::PolyfitInfo bad;
  (void)math::polyfit({0.0, 1e-4, 2e-4}, {1.0, 1.1, 1.2}, 2, &bad);
  EXPECT_GT(bad.condition, 1e6);
}

TEST(Guardrails, LogQuadraticModelRefusesOverflow) {
  const math::LogQuadraticModel m{1.0, 1.0, 1.0};
  EXPECT_GT(m(10.0), 0.0);
  try {
    (void)m(1000.0);  // exponent ~1e6
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("overflows"), std::string::npos) << what;
    EXPECT_NE(what.find("L=1000"), std::string::npos) << what;
  }
}

TEST(Guardrails, LogQuadraticModelUnderflowsToZero) {
  const math::LogQuadraticModel m{1.0, -10.0, 0.0};
  EXPECT_EQ(m(100.0), 0.0);  // exp(-1000): physically no leakage
}

TEST(Guardrails, ExpectationRefusesOverflow) {
  // log-expectation ~ 800: representable in log space only.
  EXPECT_THROW((void)math::expectation_exp_quadratic_1d(800.0, 0.0, 1.0, 1e-6), NumericalError);
  // The classical divergence guard still fires first when 1 - 2c*var <= 0.
  EXPECT_THROW((void)math::expectation_exp_quadratic_1d(0.0, 1.0, 0.0, 1.0), NumericalError);
}

TEST(Guardrails, GridSamplerRejectsNonPsdKernel) {
  const BogusCorrelation rho;
  try {
    const process::GridFieldSampler sampler(8, 8, 100.0, 100.0, rho, 1.0);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not positive semi-definite"), std::string::npos) << what;
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
  }
}

TEST(Guardrails, GridSamplerStillAcceptsLinearKernel) {
  // The linear taper is known to clamp a few percent of embedding eigenvalues;
  // the validity threshold must not reject it.
  const process::LinearCorrelation rho(2.0e4);
  process::GridFieldSampler sampler(16, 16, 1000.0, 1000.0, rho, 1.0);
  EXPECT_LT(sampler.clamped_eigenvalue_fraction(), 0.25);
  math::Rng rng(7);
  const std::vector<double> field = sampler.sample(rng);
  for (double v : field) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace rgleak
