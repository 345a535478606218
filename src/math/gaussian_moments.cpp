#include "math/gaussian_moments.h"

#include <cmath>
#include <sstream>

#include "util/require.h"

namespace rgleak::math {

namespace {

// Inverse of an SPD matrix via its Cholesky factor, plus log-determinant.
struct SpdInverse {
  Matrix inverse;
  double log_det;
};

// exp() that refuses to overflow to inf: the expectation formulas work in log
// space, so a huge log_e means the inputs (not rounding) are unrepresentable.
double guarded_exp(double log_e, const char* where) {
  if (log_e > 700.0 || !std::isfinite(log_e)) {
    std::ostringstream os;
    os << where << ": log-expectation " << log_e << " overflows double";
    throw NumericalError(os.str());
  }
  return std::exp(log_e);
}

SpdInverse spd_inverse(const Matrix& a) {
  const std::size_t n = a.rows();
  const Matrix l = cholesky(a);
  double log_det = 0.0;
  for (std::size_t i = 0; i < n; ++i) log_det += 2.0 * std::log(l(i, i));

  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t col = 0; col < n; ++col) {
    e.assign(n, 0.0);
    e[col] = 1.0;
    const std::vector<double> x = backward_substitute_transposed(l, forward_substitute(l, e));
    for (std::size_t r = 0; r < n; ++r) inv(r, col) = x[r];
  }
  return {inv, log_det};
}

}  // namespace

double expectation_exp_quadratic(const std::vector<double>& w, const Matrix& a,
                                 const std::vector<double>& mu, const Matrix& sigma) {
  const std::size_t n = mu.size();
  RGLEAK_REQUIRE(w.size() == n, "w dimension mismatch");
  RGLEAK_REQUIRE(a.rows() == n && a.cols() == n, "A dimension mismatch");
  RGLEAK_REQUIRE(sigma.rows() == n && sigma.cols() == n, "Sigma dimension mismatch");
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      RGLEAK_REQUIRE(std::abs(a(i, j) - a(j, i)) < 1e-12, "A must be symmetric");

  // E[exp(w'z + z'Az)] with z = mu + u, u ~ N(0, Sigma):
  //   = exp(w'mu + mu'A mu) * |Sigma|^{-1/2} |B|^{-1/2} exp(0.5 v'B^{-1} v)
  // with B = Sigma^{-1} - 2A (must be SPD) and v = w + 2 A mu.
  const SpdInverse si = spd_inverse(sigma);
  Matrix b = si.inverse;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) b(i, j) -= 2.0 * a(i, j);

  Matrix lb;
  try {
    lb = cholesky(b);
  } catch (const NumericalError&) {
    throw NumericalError(
        "expectation_exp_quadratic: I - 2*Sigma*A not positive definite; expectation diverges");
  }
  double log_det_b = 0.0;
  for (std::size_t i = 0; i < n; ++i) log_det_b += 2.0 * std::log(lb(i, i));

  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = w[i];
    for (std::size_t j = 0; j < n; ++j) s += 2.0 * a(i, j) * mu[j];
    v[i] = s;
  }
  const std::vector<double> binv_v = backward_substitute_transposed(lb, forward_substitute(lb, v));

  double quad_mu = 0.0;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) quad_mu += mu[i] * a(i, j) * mu[j];

  const double log_e = dot(w, mu) + quad_mu - 0.5 * (si.log_det + log_det_b) + 0.5 * dot(v, binv_v);
  return guarded_exp(log_e, "expectation_exp_quadratic");
}

double expectation_exp_quadratic_1d(double b, double c, double mu, double var) {
  RGLEAK_REQUIRE(var >= 0.0, "variance must be non-negative");
  if (var == 0.0) return std::exp(b * mu + c * mu * mu);
  const double denom = 1.0 - 2.0 * c * var;
  if (denom <= 0.0)
    throw NumericalError("expectation_exp_quadratic_1d: 1 - 2c*var <= 0; expectation diverges");
  const double v = b + 2.0 * c * mu;
  const double log_e = b * mu + c * mu * mu + 0.5 * v * v * var / denom - 0.5 * std::log(denom);
  return guarded_exp(log_e, "expectation_exp_quadratic_1d");
}

double expectation_exp_quadratic_2d(double b1, double c1, double b2, double c2, double mu,
                                    double var, double rho) {
  RGLEAK_REQUIRE(var >= 0.0, "variance must be non-negative");
  RGLEAK_REQUIRE(rho >= -1.0 && rho <= 1.0, "correlation must be in [-1, 1]");
  if (var == 0.0) return std::exp((b1 + b2) * mu + (c1 + c2) * mu * mu);

  // The n-D formula with Sigma = var [[1, rho], [rho, 1]] and A = diag(c1, c2),
  // written out for M = I - 2 Sigma A:
  //   det M       = (1 - 2 var c1)(1 - 2 var c2) - 4 rho^2 var^2 c1 c2,
  //   M^-1 Sigma  = var/det M * [[1 - 2 var c2 (1 - rho^2), rho],
  //                              [rho, 1 - 2 var c1 (1 - rho^2)]].
  // Nothing here inverts Sigma, so rho = +-1 needs no special case.
  const double d1 = 1.0 - 2.0 * var * c1;
  const double d2 = 1.0 - 2.0 * var * c2;
  const double det = d1 * d2 - 4.0 * rho * rho * var * var * c1 * c2;
  // M is similar to a symmetric matrix, so it is positive definite exactly
  // when both its determinant and its trace are positive.
  if (!(det > 0.0) || !(d1 + d2 > 0.0))
    throw NumericalError(
        "expectation_exp_quadratic_2d: I - 2*Sigma*A not positive definite; expectation "
        "diverges");
  const double v1 = b1 + 2.0 * c1 * mu;
  const double v2 = b2 + 2.0 * c2 * mu;
  const double one_minus_rho2 = 1.0 - rho * rho;
  const double quad = var / det *
                      (v1 * v1 * (1.0 - 2.0 * var * c2 * one_minus_rho2) + 2.0 * rho * v1 * v2 +
                       v2 * v2 * (1.0 - 2.0 * var * c1 * one_minus_rho2));
  const double log_e =
      (b1 + b2) * mu + (c1 + c2) * mu * mu + 0.5 * quad - 0.5 * std::log(det);
  return guarded_exp(log_e, "expectation_exp_quadratic_2d");
}

}  // namespace rgleak::math
