#include "charlib/hermite_series.h"

#include <cmath>
#include <sstream>

#include "util/error.h"

namespace rgleak::charlib {

void HermiteSeries::add_scaled(double w, const HermiteSeries& other) {
  mean_na += w * other.mean_na;
  if (g.size() < other.g.size()) g.resize(other.g.size(), 0.0);
  for (std::size_t k = 0; k < other.g.size(); ++k) g[k] += w * other.g[k];
}

HermiteSeries hermite_series(const math::LogQuadraticModel& model, double mean_na, double mu_l,
                             double sigma_l) {
  constexpr std::size_t kMaxOrder = 200;
  const math::LogQuadraticMoments moments(model, mu_l, sigma_l);  // checks 1 - 4 c sigma^2 > 0
  const double denom = 1.0 - 2.0 * model.c * sigma_l * sigma_l;
  const double p = (model.b + 2.0 * model.c * mu_l) * sigma_l / denom;
  const double q = 2.0 * model.c * sigma_l * sigma_l / denom;
  // Parseval: sum_{k>=1} u_k^2, well conditioned through expm1/log1p.
  const double total = std::expm1(p * p / (1.0 - q) - 0.5 * std::log1p(-q * q));

  HermiteSeries s;
  s.mean_na = mean_na;
  s.g.push_back(moments.mean());
  if (!(total > 0.0)) return s;  // no spread through L
  double u_prev = 1.0, u = p, partial = 0.0;
  for (std::size_t k = 1;; ++k) {
    s.g.push_back(moments.mean() * u);
    partial += u * u;
    if (total - partial <= kHermiteTail * total) return s;
    if (k == kMaxOrder) {
      std::ostringstream os;
      os << "Hermite series of the leakage model (a " << model.a << ", b " << model.b << ", c "
         << model.c << ") at L = " << mu_l << " +/- " << sigma_l << " nm keeps a relative tail of "
         << (total - partial) / total << " after " << kMaxOrder << " orders (p " << p << ", q "
         << q << ")";
      throw NumericalError(os.str());
    }
    const double next = (p * u + std::sqrt(static_cast<double>(k)) * q * u_prev) /
                        std::sqrt(static_cast<double>(k + 1));
    u_prev = u;
    u = next;
  }
}

std::vector<double> covariance_coefficients(const HermiteSeries& a, const HermiteSeries& b) {
  const std::size_t len = a.g.size() < b.g.size() ? a.g.size() : b.g.size();
  std::vector<double> c(len);
  for (std::size_t k = 1; k < len; ++k) c[k] = a.g[k] * b.g[k];
  if (len > 0) c[0] = a.g[0] * b.g[0] - a.mean_na * b.mean_na;
  return c;
}

HermiteSeries first_order_series(double mean_na, double sigma_na) {
  HermiteSeries s;
  s.mean_na = mean_na;
  s.g = {mean_na, sigma_na};
  return s;
}

}  // namespace rgleak::charlib
