#pragma once
// Batched exponential kernel behind LeakageTable::eval_many_na.
//
// std::exp is accurate but scalar: one call per table lookup keeps a batch
// of lookups from vectorizing. vexp() evaluates exp() over a
// contiguous array with a branch-free range-reduction + polynomial scheme
// (round-to-nearest power-of-two split, degree-13 Taylor on |r| <= ln2/2,
// exponent bit-stuffing) that compilers auto-vectorize. Accuracy is
// ULP-bounded against std::exp (see tests/math/test_vexp.cpp: <= 4 ULP over
// the leakage tables' whole log-range and beyond).
//
// Arguments outside [kVexpMinArg, kVexpMaxArg] are clamped to the interval
// ends before evaluation, so vexp never produces inf, 0, or denormals. The
// MC leakage tables live in roughly [-20, 40] in log space, far inside the
// window; the clamp only matters for callers feeding extreme arguments.

#include <cstddef>

namespace rgleak::math {

/// Largest argument vexp evaluates exactly; larger inputs clamp to it
/// (exp(709.08) ~ 8.2e307, still finite).
inline constexpr double kVexpMaxArg = 709.08;
/// Smallest argument vexp evaluates exactly; smaller inputs clamp to it
/// (exp(-708.39) ~ 2.3e-308, still a normal double).
inline constexpr double kVexpMinArg = -708.39;

/// out[i] = exp(x[i]) for i in [0, n). In-place operation (out == x) is
/// allowed; any other overlap is not.
void vexp(const double* x, double* out, std::size_t n);

}  // namespace rgleak::math
