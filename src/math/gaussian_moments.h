#pragma once
// Closed-form Gaussian expectations of exponential-quadratic forms.
//
// The analytical leakage machinery of the paper rests on two facts about a
// (multivariate) normal vector z ~ N(mu, Sigma):
//
//   E[exp(w'z + z' A z)] =
//     |I - 2 Sigma A|^{-1/2} *
//     exp( w'mu + mu'A mu + 0.5 * v' (I - 2 Sigma A)^{-1} Sigma v ),
//     with v = w + 2 A mu,
//
// valid when I - 2 Sigma A is positive definite. For a single cell this gives
// the exact mean/second-moment of X = a exp(bL + cL^2) (equivalently, the
// non-central chi-square MGF of eqs (1)-(5)); for a *pair* of cells it gives
// E[X_m X_n] under correlated lengths, which is the exact leakage-correlation
// mapping f_{m,n}(rho_L) of section 2.1.3.

#include "math/linalg.h"

namespace rgleak::math {

/// E[exp(w'z + z'Az)] for z ~ N(mu, Sigma). `a` must be symmetric. Throws
/// NumericalError when I - 2*Sigma*A is not positive definite (the expectation
/// diverges).
double expectation_exp_quadratic(const std::vector<double>& w, const Matrix& a,
                                 const std::vector<double>& mu, const Matrix& sigma);

/// Specialized 1-D case: E[exp(b z + c z^2)] for z ~ N(mu, var). Used for the
/// cell mean; requires 1 - 2*c*var > 0.
double expectation_exp_quadratic_1d(double b, double c, double mu, double var);

/// Specialized 2-D case used by the pairwise-leakage correlation map:
/// E[exp(b1 z1 + c1 z1^2 + b2 z2 + c2 z2^2)] where (z1, z2) are jointly normal
/// with common mean `mu`, common variance `var`, and correlation `rho`.
/// Evaluates the n-D formula in closed form (no matrix temporaries), exact
/// through rho = +-1. Throws NumericalError when I - 2*Sigma*A is not
/// positive definite.
double expectation_exp_quadratic_2d(double b1, double c1, double b2, double c2, double mu,
                                    double var, double rho);

}  // namespace rgleak::math
