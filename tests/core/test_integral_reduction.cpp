// Eq. (20) by its exact radial reduction: estimate_integral_rect against a
// fixed 2-D tensor Gauss–Legendre evaluation of the same integrand, the
// angular weight G(r) against its closed-form moments, and the polar rung
// against the rect rung wherever the polar form is valid.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "../test_util.h"
#include "core/estimators.h"
#include "math/quadrature.h"

namespace rgleak::core {
namespace {

using rgleak::testing::mini_library;

// The bench corner's length statistics (L = 40 +/- 2.5 nm, even D2D/WID
// split) under one spatial kernel.
struct Kernel {
  std::string name;
  std::shared_ptr<const process::SpatialCorrelation> rho;
  double scale_x = 1.0;
};

std::vector<Kernel> kernels() {
  return {
      {"exponential 0.1 mm", std::make_shared<process::ExponentialCorrelation>(1.0e5)},
      {"exponential 0.1 mm, s_x = 3", std::make_shared<process::ExponentialCorrelation>(1.0e5),
       3.0},
      {"spherical 0.3 mm", std::make_shared<process::SphericalCorrelation>(3.0e5)},
      {"gaussian 0.1 mm", std::make_shared<process::GaussianCorrelation>(1.0e5)},
  };
}

RandomGate bench_rg(const Kernel& k) {
  process::LengthVariation len;
  len.mean_nm = 40.0;
  len.sigma_d2d_nm = len.sigma_wid_nm = std::sqrt(0.5 * 2.5 * 2.5);
  process::CorrelationAnisotropy axes;
  axes.scale_x = k.scale_x;
  const process::ProcessVariation p(len, process::VtVariation{}, k.rho, axes);
  netlist::UsageHistogram u;
  u.alphas.assign(mini_library().size(), 0.0);
  u.alphas[mini_library().index_of("INV_X1")] = 0.4;
  u.alphas[mini_library().index_of("NAND2_X1")] = 0.4;
  u.alphas[mini_library().index_of("NOR2_X1")] = 0.2;
  return RandomGate(charlib::characterize_analytic(mini_library(), p), u, 0.5,
                    CorrelationMode::kAnalytic);
}

placement::Floorplan grid(std::size_t rows, std::size_t cols) {
  placement::Floorplan fp;
  fp.rows = rows;
  fp.cols = cols;
  fp.site_w_nm = fp.site_h_nm = 1500.0;
  return fp;
}

// Eq. (20) as written: the 2-D integral over [0, W] x [0, H] of
// (W - x)(H - y) C(x, y), by a fixed order-16 tensor rule on 128 x 128 panels.
double sigma_2d(const RandomGate& rg, const placement::Floorplan& fp) {
  const double w = fp.width_nm(), h = fp.height_nm();
  const double n = static_cast<double>(fp.num_sites());
  const double integral = math::integrate_2d(
      [&](double x, double y) { return (w - x) * (h - y) * rg.covariance_at_offset(x, y); }, 0.0,
      w, 0.0, h, 16, 128, 128);
  return std::sqrt(4.0 * n * n / (w * w * h * h) * integral);
}

TEST(IntegralRect, RadialReductionMatchesTheTwoDimensionalIntegral) {
  for (const Kernel& k : kernels()) {
    const RandomGate rg = bench_rg(k);
    for (const placement::Floorplan& fp :
         {grid(31, 31), grid(64, 256), grid(1000, 1000), grid(400, 1600)}) {
      const double ref = sigma_2d(rg, fp);
      const LeakageEstimate e = estimate_integral_rect(rg, fp);
      EXPECT_NEAR(e.sigma_na, ref, 1e-7 * ref) << k.name << ", " << fp.rows << "x" << fp.cols;
      EXPECT_EQ(e.method, "integral_rect");
    }
  }
}

TEST(IntegralRect, PolarEqualsRectWhereverPolarIsValid) {
  std::size_t valid = 0;
  for (const Kernel& k : kernels()) {
    const RandomGate rg = bench_rg(k);
    for (const placement::Floorplan& fp :
         {grid(31, 31), grid(64, 256), grid(1000, 1000), grid(400, 1600)}) {
      bool used_polar = false;
      const LeakageEstimate polar = estimate_integral_polar(rg, fp, {}, &used_polar);
      const LeakageEstimate rect = estimate_integral_rect(rg, fp);
      EXPECT_EQ(polar.sigma_na, rect.sigma_na) << k.name << ", " << fp.rows << "x" << fp.cols;
      EXPECT_EQ(polar.mean_na, rect.mean_na);
      EXPECT_EQ(polar.method, used_polar ? "integral_polar" : "integral_rect");
      if (used_polar) ++valid;
    }
  }
  // Polar engages on the 1.5 mm die for the exponential, spherical and
  // Gaussian kernels, and on 400 x 1600 for the two compact-range ones.
  EXPECT_EQ(valid, 5u);
}

TEST(RectAngularWeight, IsEq24BelowTheShortSideAndZeroAtTheDiagonal) {
  for (const auto& [w, h] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {10.0, 7.0}, {0.5, 1.5}, {3.0, 12.0}}) {
    const double lo = std::min(w, h), diag = std::hypot(w, h);
    for (double r : {0.0, 0.1 * lo, 0.5 * lo, lo}) {
      const double g = 0.5 * r * r - (w + h) * r + 0.5 * M_PI * w * h;
      EXPECT_NEAR(rect_angular_weight(w, h, r), g, 1e-14 * w * h) << w << "x" << h << " r=" << r;
    }
    EXPECT_NEAR(rect_angular_weight(w, h, diag), 0.0, 1e-14 * w * h);
    EXPECT_EQ(rect_angular_weight(w, h, 1.01 * diag), 0.0);
    // Continuous where its closed form changes, at min(W, H) and max(W, H),
    // and non-increasing throughout.
    for (double edge : {lo, std::max(w, h)})
      EXPECT_NEAR(rect_angular_weight(w, h, edge * (1.0 + 1e-12)),
                  rect_angular_weight(w, h, edge), 1e-9 * w * h)
          << w << "x" << h << " r=" << edge;
    double prev = rect_angular_weight(w, h, 0.0);
    for (int i = 1; i <= 400; ++i) {
      const double g = rect_angular_weight(w, h, diag * i / 400.0);
      EXPECT_LE(g, prev + 1e-12 * w * h) << w << "x" << h << " step " << i;
      prev = g;
    }
  }
}

// int_0^diag f(r) r G(r) dr, split where G changes its closed form.
double radial(const std::function<double(double)>& f, double w, double h) {
  const auto integrand = [&](double r) { return f(r) * r * rect_angular_weight(w, h, r); };
  const math::QuadratureOptions tight{1e-14, 1e-12};
  return math::integrate_adaptive(integrand, 0.0, std::min(w, h), tight) +
         math::integrate_adaptive(integrand, std::min(w, h), std::max(w, h), tight) +
         math::integrate_adaptive(integrand, std::max(w, h), std::hypot(w, h), tight);
}

TEST(RectAngularWeight, CarriesTheRectanglePairMoments) {
  // int int (W-x)(H-y) dy dx = W^2 H^2 / 4 and, with weight x^2 + y^2,
  // W^2 H^2 (W^2 + H^2) / 24: G is the exact pair density over the rectangle.
  for (const auto& [w, h] : std::vector<std::pair<double, double>>{
           {1.0, 1.0}, {10.0, 7.0}, {0.5, 1.5}, {3.0, 12.0}}) {
    const double zeroth = radial([](double) { return 1.0; }, w, h);
    EXPECT_NEAR(zeroth, 0.25 * w * w * h * h, 1e-11 * w * w * h * h) << w << "x" << h;
    const double second = radial([](double r) { return r * r; }, w, h);
    const double expect = w * w * h * h * (w * w + h * h) / 24.0;
    EXPECT_NEAR(second, expect, 1e-11 * expect) << w << "x" << h;
  }
}

TEST(RectAngularWeight, ReducesAnExponentialKernelIntegral) {
  // Exponential correlation-like kernel: int over [0,W]x[0,H] of
  // (W-x)(H-y) exp(-r/l), as a radial integral and as a converged 2-D one.
  const double w = 10.0, h = 7.0, l = 2.0;
  const auto f = [&](double x, double y) {
    return (w - x) * (h - y) * std::exp(-std::hypot(x, y) / l);
  };
  const double fine = math::integrate_2d(f, 0, w, 0, h, 24, 32, 32);
  const double reduced = radial([&](double r) { return std::exp(-r / l); }, w, h);
  EXPECT_NEAR(reduced, fine, 1e-6 * std::abs(fine));
  // Sanity: a coarse 2-D estimate is in the same ballpark.
  EXPECT_NEAR(math::integrate_2d(f, 0, w, 0, h, 8, 2, 2), fine, 0.05 * std::abs(fine));
}

}  // namespace
}  // namespace rgleak::core
