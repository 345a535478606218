#include "math/quadrature.h"

#include <cmath>

#include "util/require.h"

namespace rgleak::math {

namespace {

double simpson(double fa, double fm, double fb, double h) { return h / 6.0 * (fa + 4.0 * fm + fb); }

double adaptive_simpson_rec(const std::function<double(double)>& f, double a, double b, double fa,
                            double fm, double fb, double whole, double tol, int depth,
                            int max_depth) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = f(lm);
  const double frm = f(rm);
  const double left = simpson(fa, flm, fm, m - a);
  const double right = simpson(fm, frm, fb, b - m);
  const double delta = left + right - whole;
  if (depth >= max_depth) {
    // Accept the refined estimate; the Richardson correction below bounds the
    // residual error, and the estimators never need more depth in practice.
    return left + right + delta / 15.0;
  }
  if (std::abs(delta) <= 15.0 * tol) return left + right + delta / 15.0;
  return adaptive_simpson_rec(f, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1, max_depth) +
         adaptive_simpson_rec(f, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1, max_depth);
}

}  // namespace

double integrate_adaptive(const std::function<double(double)>& f, double a, double b,
                          const QuadratureOptions& opts) {
  RGLEAK_REQUIRE(a <= b, "integrate_adaptive needs a <= b");
  if (a == b) return 0.0;
  // Seed with a fixed subdivision so periodic integrands cannot alias to zero
  // on the first Simpson stencil; each panel then refines adaptively.
  constexpr int kInitialPanels = 16;
  const double h = (b - a) / kInitialPanels;

  // First pass: coarse estimate to set the relative tolerance scale.
  double coarse = 0.0;
  for (int p = 0; p < kInitialPanels; ++p) {
    const double pa = a + p * h;
    coarse += simpson(f(pa), f(pa + 0.5 * h), f(pa + h), h);
  }
  const double tol =
      std::max(opts.abs_tol, opts.rel_tol * std::abs(coarse)) / kInitialPanels;

  double total = 0.0;
  for (int p = 0; p < kInitialPanels; ++p) {
    const double pa = a + p * h;
    const double pb = pa + h;
    const double fa = f(pa);
    const double fm = f(0.5 * (pa + pb));
    const double fb = f(pb);
    const double whole = simpson(fa, fm, fb, h);
    total += adaptive_simpson_rec(f, pa, pb, fa, fm, fb, whole, tol, 0, opts.max_depth);
  }
  return total;
}

GaussLegendreRule gauss_legendre(std::size_t n) {
  RGLEAK_REQUIRE(n >= 1, "gauss_legendre needs order >= 1");
  GaussLegendreRule rule;
  rule.nodes.resize(n);
  rule.weights.resize(n);
  const std::size_t half = (n + 1) / 2;
  for (std::size_t i = 0; i < half; ++i) {
    // Chebyshev-based initial guess for the i-th root of P_n.
    double x = std::cos(M_PI * (static_cast<double>(i) + 0.75) / (static_cast<double>(n) + 0.5));
    double pp = 0.0;
    for (int it = 0; it < 100; ++it) {
      // Evaluate P_n(x) and P'_n(x) by the three-term recurrence.
      double p0 = 1.0, p1 = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        const double p2 = p1;
        p1 = p0;
        p0 = ((2.0 * static_cast<double>(j) + 1.0) * x * p1 - static_cast<double>(j) * p2) /
             (static_cast<double>(j) + 1.0);
      }
      pp = static_cast<double>(n) * (x * p0 - p1) / (x * x - 1.0);
      const double dx = p0 / pp;
      x -= dx;
      if (std::abs(dx) < 1e-15) break;
    }
    rule.nodes[i] = -x;
    rule.nodes[n - 1 - i] = x;
    const double w = 2.0 / ((1.0 - x * x) * pp * pp);
    rule.weights[i] = w;
    rule.weights[n - 1 - i] = w;
  }
  return rule;
}

double integrate_gauss(const std::function<double(double)>& f, double a, double b,
                       std::size_t order) {
  const GaussLegendreRule rule = gauss_legendre(order);
  const double c = 0.5 * (a + b);
  const double h = 0.5 * (b - a);
  double s = 0.0;
  for (std::size_t i = 0; i < order; ++i) s += rule.weights[i] * f(c + h * rule.nodes[i]);
  return s * h;
}

double integrate_2d(const std::function<double(double, double)>& f, double ax, double bx,
                    double ay, double by, std::size_t order, std::size_t panels_x,
                    std::size_t panels_y) {
  RGLEAK_REQUIRE(ax <= bx && ay <= by, "integrate_2d needs a valid rectangle");
  RGLEAK_REQUIRE(panels_x >= 1 && panels_y >= 1, "integrate_2d needs >= 1 panel per axis");
  const GaussLegendreRule rule = gauss_legendre(order);
  const double px = (bx - ax) / static_cast<double>(panels_x);
  const double py = (by - ay) / static_cast<double>(panels_y);
  double total = 0.0;
  for (std::size_t ix = 0; ix < panels_x; ++ix) {
    const double cx = ax + (static_cast<double>(ix) + 0.5) * px;
    for (std::size_t iy = 0; iy < panels_y; ++iy) {
      const double cy = ay + (static_cast<double>(iy) + 0.5) * py;
      double s = 0.0;
      for (std::size_t i = 0; i < order; ++i) {
        const double x = cx + 0.5 * px * rule.nodes[i];
        double row = 0.0;
        for (std::size_t j = 0; j < order; ++j)
          row += rule.weights[j] * f(x, cy + 0.5 * py * rule.nodes[j]);
        s += rule.weights[i] * row;
      }
      total += s * 0.25 * px * py;
    }
  }
  return total;
}

}  // namespace rgleak::math
