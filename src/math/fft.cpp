#include "math/fft.h"

#include <cmath>

#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::math {

namespace {
bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }
}  // namespace

std::size_t next_pow2(std::size_t n) {
  RGLEAK_REQUIRE(n >= 1, "next_pow2 needs n >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

void fft(std::vector<std::complex<double>>& a, bool inverse) {
  const std::size_t n = a.size();
  RGLEAK_REQUIRE(is_pow2(n), "fft size must be a power of two");
  if (n <= 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2.0 * M_PI / static_cast<double>(len) * (inverse ? 1.0 : -1.0);
    const std::complex<double> wl(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = a[i + k];
        const std::complex<double> v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wl;
      }
    }
  }
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n);
    for (auto& x : a) x *= inv;
  }
}

void fft2d(std::vector<std::complex<double>>& data, std::size_t rows, std::size_t cols,
           bool inverse) {
  RGLEAK_REQUIRE(data.size() == rows * cols, "fft2d: data size mismatch");
  RGLEAK_REQUIRE(is_pow2(rows) && is_pow2(cols), "fft2d dims must be powers of two");

  std::vector<std::complex<double>> scratch(std::max(rows, cols));
  // Rows.
  for (std::size_t r = 0; r < rows; ++r) {
    scratch.assign(data.begin() + static_cast<std::ptrdiff_t>(r * cols),
                   data.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols));
    fft(scratch, inverse);
    std::copy(scratch.begin(), scratch.end(),
              data.begin() + static_cast<std::ptrdiff_t>(r * cols));
  }
  // Columns.
  for (std::size_t c = 0; c < cols; ++c) {
    scratch.resize(rows);
    for (std::size_t r = 0; r < rows; ++r) scratch[r] = data[r * cols + c];
    fft(scratch, inverse);
    for (std::size_t r = 0; r < rows; ++r) data[r * cols + c] = scratch[r];
  }
}

FftPlan::FftPlan(std::size_t n) : n_(n) {
  RGLEAK_REQUIRE(is_pow2(n), "fft plan size must be a power of two");
  // The twiddle/bit-reversal tables are the plan's arena; an injected (or
  // real) bad_alloc here is translated to ResourceError by callers.
  RGLEAK_FAILPOINT("math.fft.plan.alloc");
  bitrev_.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }
  if (n >= 2) {
    twiddle_.resize(n - 1);
    std::size_t off = 0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      const double ang = -2.0 * M_PI / static_cast<double>(len);
      for (std::size_t k = 0; k < len / 2; ++k)
        twiddle_[off + k] = std::polar(1.0, ang * static_cast<double>(k));
      off += len / 2;
    }
  }
}

template <bool Inverse>
void FftPlan::butterflies(double* a, std::size_t keep) const {
  // `a` holds n (re, im) pairs; element i is a[2i], a[2i+1].
  const std::size_t n = n_;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) {
      std::swap(a[2 * i], a[2 * j]);
      std::swap(a[2 * i + 1], a[2 * j + 1]);
    }
  }
  // Stage `half` combines pairs half apart with twiddles w_{2 half}^k, which
  // start at table offset half - 1. v = x * w is spelled (xr wr - xi wi,
  // xr wi + xi wr), the order std::complex multiplies in.
  const double* tw = reinterpret_cast<const double*>(twiddle_.data());
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* w = tw + 2 * (half - 1);
    const std::size_t live = std::min(half, keep);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* lo = a + 2 * i;
      double* hi = lo + 2 * half;
      for (std::size_t k = 0; k < live; ++k) {
        const double wr = w[2 * k];
        const double wi = Inverse ? -w[2 * k + 1] : w[2 * k + 1];
        const double xr = hi[2 * k], xi = hi[2 * k + 1];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        const double ur = lo[2 * k], ui = lo[2 * k + 1];
        lo[2 * k] = ur + vr;
        lo[2 * k + 1] = ui + vi;
        hi[2 * k] = ur - vr;
        hi[2 * k + 1] = ui - vi;
      }
    }
  }
}

void FftPlan::run_unscaled(std::complex<double>* a, bool inverse, std::size_t keep) const {
  // A complex array is layout-compatible with (re, im) double pairs.
  double* d = reinterpret_cast<double*>(a);
  if (inverse)
    butterflies<true>(d, keep);
  else
    butterflies<false>(d, keep);
}

void FftPlan::run(std::complex<double>* a, bool inverse) const {
  run_unscaled(a, inverse, n_);
  if (inverse) {
    const double inv = 1.0 / static_cast<double>(n_);
    for (std::size_t i = 0; i < n_; ++i) a[i] *= inv;
  }
}

CrossCorrelator2D::CrossCorrelator2D(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      pad_rows_(next_pow2(2 * rows - 1)),
      pad_cols_(next_pow2(2 * cols - 1)) {
  RGLEAK_REQUIRE(rows >= 1 && cols >= 1, "cross-correlation needs a non-empty grid");
}

std::vector<std::complex<double>> CrossCorrelator2D::transform(
    const std::vector<double>& grid) const {
  RGLEAK_REQUIRE(grid.size() == rows_ * cols_, "cross-correlation: grid size mismatch");
  std::vector<std::complex<double>> padded(pad_rows_ * pad_cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) padded[r * pad_cols_ + c] = grid[r * cols_ + c];
  fft2d(padded, pad_rows_, pad_cols_, /*inverse=*/false);
  return padded;
}

std::vector<double> CrossCorrelator2D::correlate(
    const std::vector<std::complex<double>>& fa,
    const std::vector<std::complex<double>>& fb) const {
  RGLEAK_REQUIRE(fa.size() == pad_rows_ * pad_cols_ && fb.size() == fa.size(),
                 "cross-correlation: transform size mismatch");
  std::vector<std::complex<double>> prod(fa.size());
  for (std::size_t i = 0; i < fa.size(); ++i) prod[i] = std::conj(fa[i]) * fb[i];
  fft2d(prod, pad_rows_, pad_cols_, /*inverse=*/true);

  // Circular result: offset (dr, dc) lives at ((dr mod R), (dc mod C)); the
  // padding guarantees the residues of the valid offsets are distinct.
  std::vector<double> out(out_rows() * out_cols());
  for (std::ptrdiff_t dr = -(static_cast<std::ptrdiff_t>(rows_) - 1);
       dr < static_cast<std::ptrdiff_t>(rows_); ++dr) {
    const std::size_t src_r =
        static_cast<std::size_t>(dr + static_cast<std::ptrdiff_t>(pad_rows_)) % pad_rows_;
    for (std::ptrdiff_t dc = -(static_cast<std::ptrdiff_t>(cols_) - 1);
         dc < static_cast<std::ptrdiff_t>(cols_); ++dc) {
      const std::size_t src_c =
          static_cast<std::size_t>(dc + static_cast<std::ptrdiff_t>(pad_cols_)) % pad_cols_;
      out[static_cast<std::size_t>(dr + static_cast<std::ptrdiff_t>(rows_) - 1) * out_cols() +
          static_cast<std::size_t>(dc + static_cast<std::ptrdiff_t>(cols_) - 1)] =
          prod[src_r * pad_cols_ + src_c].real();
    }
  }
  return out;
}

}  // namespace rgleak::math
