#pragma once
// Numerical integration used by the constant-time leakage estimators:
//  - adaptive Simpson in 1-D (the radial integral behind eqs. 20 and 25/26),
//  - Gauss–Legendre rules in 1-D and on tensor panels in 2-D (fixed-cost
//    references for the radial reduction).

#include <cstddef>
#include <functional>
#include <vector>

namespace rgleak::math {

/// Options for the adaptive integrators.
struct QuadratureOptions {
  double abs_tol = 1e-10;
  double rel_tol = 1e-9;
  int max_depth = 40;  ///< maximum recursive bisection depth
};

/// Adaptive Simpson integration of f over [a, b], seeded with 16 equal
/// panels. A panel stops bisecting when its two halves agree to within its
/// share of max(abs_tol, rel_tol * |coarse 16-panel estimate|), or when it
/// reaches max_depth; either way it returns the Richardson-corrected sum.
/// Reaching max_depth is not an error: the result is then accurate only to
/// what that depth resolves, and no exception is thrown.
double integrate_adaptive(const std::function<double(double)>& f, double a, double b,
                          const QuadratureOptions& opts = {});

/// Nodes/weights of an n-point Gauss–Legendre rule on [-1, 1]
/// (computed by Newton iteration on the Legendre polynomial).
struct GaussLegendreRule {
  std::vector<double> nodes;
  std::vector<double> weights;
};
GaussLegendreRule gauss_legendre(std::size_t n);

/// Fixed-order Gauss–Legendre integration of f over [a, b].
double integrate_gauss(const std::function<double(double)>& f, double a, double b,
                       std::size_t order);

/// 2-D integration of f(x, y) over [ax, bx] x [ay, by] using a tensor-product
/// Gauss–Legendre rule on a panels_x x panels_y subdivision. Deterministic cost:
/// panels_x * panels_y * order^2 evaluations.
double integrate_2d(const std::function<double(double, double)>& f, double ax, double bx,
                    double ay, double by, std::size_t order = 16, std::size_t panels_x = 8,
                    std::size_t panels_y = 8);

}  // namespace rgleak::math
