#pragma once
// Bracketed scalar root-finding by Brent's method: the one root-finder behind
// the stack solver's chain and element solves and the correlation models'
// range and scale lengths.

#include <cmath>
#include <limits>

namespace rgleak::math {

/// Root of a non-decreasing `f` on [a, b], a <= b. Returns `a` when
/// f(a) >= 0 and `b` when f(b) <= 0 (f evaluated once at each end, a first).
/// Otherwise f(a) < 0 < f(b), and the result lies within
/// tol + 4 eps |x| of a sign change of f.
///
/// Brent's method (Brent 1973, "Algorithms for Minimization without
/// Derivatives", ch. 4): inverse-quadratic or secant steps, and a bisection
/// whenever a step would leave the bracket or shrinks it too slowly, so it
/// never needs more than about log2((b - a) / tol)^2 evaluations. f need not
/// be continuous: at a step it converges onto the step.
template <class F>
double brent_root(F&& f, double a, double b, double tol) {
  double fa = f(a);
  if (fa >= 0.0) return a;
  double fb = f(b);
  if (fb <= 0.0) return b;
  // b is the best estimate, c the contrapoint (f(c) has the opposite sign of
  // f(b)), a the previous b; e is the step before last.
  double c = a, fc = fa;
  double d = b - a, e = d;
  for (;;) {
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = e = b - a;
    }
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b;
      b = c;
      c = a;
      fa = fb;
      fb = fc;
      fc = fa;
    }
    // The smallest normal double keeps tol1 > 0 so that a root at 0 with
    // tol = 0 still ends.
    const double tol1 = 2.0 * std::numeric_limits<double>::epsilon() * std::fabs(b) + 0.5 * tol +
                        std::numeric_limits<double>::min();
    const double xm = 0.5 * (c - b);
    if (std::fabs(xm) <= tol1 || fb == 0.0) return b;
    if (std::fabs(e) >= tol1 && std::fabs(fa) > std::fabs(fb)) {
      const double s = fb / fa;
      double p, q;
      if (a == c) {  // secant
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {  // inverse quadratic through a, b, c
        const double qa = fa / fc, r = fb / fc;
        p = s * (2.0 * xm * qa * (qa - r) - (b - a) * (r - 1.0));
        q = (qa - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0.0) {
        q = -q;
      } else {
        p = -p;
      }
      // Accept the interpolated step only if it stays well inside the
      // bracket and is less than half the step before last.
      if (2.0 * p < std::fmin(3.0 * xm * q - std::fabs(tol1 * q), std::fabs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    b += std::fabs(d) > tol1 ? d : std::copysign(tol1, xm);
    fb = f(b);
  }
}

}  // namespace rgleak::math
