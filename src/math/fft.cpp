#include "math/fft.h"

#include <algorithm>
#include <cmath>

#include "util/failpoint.h"
#include "util/require.h"
#include "util/thread_pool.h"

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

FoldedAutocorrelation2D::FoldedAutocorrelation2D(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      pad_rows_(next_pow2(2 * std::max<std::size_t>(rows, 1) - 1)),
      pad_cols_(next_pow2(2 * std::max<std::size_t>(cols, 1) - 1)),
      col_plan_(pad_rows_),
      row_plan_(pad_cols_) {
  RGLEAK_REQUIRE(rows >= 1 && cols >= 1, "autocorrelation needs a non-empty grid");
  grid_.resize(rows_ * pad_cols_);
}

std::uint64_t FoldedAutocorrelation2D::grid_bytes(std::size_t rows, std::size_t cols) {
  return static_cast<std::uint64_t>(rows) * next_pow2(2 * cols - 1) *
         sizeof(std::complex<double>);
}

void FoldedAutocorrelation2D::correlate(const double* a, const double* b, double* out_a,
                                        double* out_b, util::ThreadPool& pool,
                                        const util::RunControl* run) {
  RGLEAK_REQUIRE((b == nullptr) == (out_b == nullptr),
                 "autocorrelation: give both the second grid and its output, or neither");
  const std::size_t k = rows_, m = cols_, pr = pad_rows_, pc = pad_cols_;
  // Tasks carry at least kGrain complex cells, so a small grid runs each
  // pass as one task on the calling thread instead of waking the pool.
  constexpr std::size_t kGrain = 2048;
  const std::size_t rows_per_task = std::max<std::size_t>(1, kGrain / pc);
  const std::size_t mirrored_per_task = std::max<std::size_t>(1, kGrain / (2 * pr));

  // Forward row pass over the live rows: a + i b, zero-padded to pc columns.
  pool.parallel_for((k + rows_per_task - 1) / rows_per_task, [&](std::size_t t) {
    for (std::size_t r = t * rows_per_task; r < std::min(k, (t + 1) * rows_per_task); ++r) {
      std::complex<double>* row = grid_.data() + r * pc;
      for (std::size_t c = 0; c < m; ++c) row[c] = {a[r * m + c], b ? b[r * m + c] : 0.0};
      std::fill(row + m, row + pc, std::complex<double>());
      row_plan_.run(row, /*inverse=*/false);
    }
  }, run);

  // Column pass, columns f and -f together: the forward transform of both
  // (rows past k are zero), the split into S(f) = S(-f) = (|A|^2 + i |B|^2)
  // with the inverse's 1/(pr pc) folded in (powers of two: exact), and the
  // inverse transform down to the k live rows, which are all the fold needs
  // (R(-d) = R(d)).
  const double scale = 0.25 / static_cast<double>(pr) / static_cast<double>(pc);
  const std::size_t mirrored = pc / 2 + 1;  // columns 0..pc/2 and their mirrors
  pool.parallel_for((mirrored + mirrored_per_task - 1) / mirrored_per_task, [&](std::size_t t) {
    std::vector<std::complex<double>> x(pr), y(pr), sx(pr), sy(pr);
    for (std::size_t c = t * mirrored_per_task;
         c < std::min(mirrored, (t + 1) * mirrored_per_task); ++c) {
      const std::size_t cm = (pc - c) % pc;  // c itself for c = 0 and c = pc / 2
      for (std::size_t r = 0; r < pr; ++r) {
        x[r] = r < k ? grid_[r * pc + c] : std::complex<double>();
        y[r] = r < k ? grid_[r * pc + cm] : std::complex<double>();
      }
      col_plan_.run(x.data(), /*inverse=*/false);
      if (cm != c) col_plan_.run(y.data(), /*inverse=*/false);
      const std::vector<std::complex<double>>& z = cm != c ? y : x;
      for (std::size_t r = 0; r < pr; ++r) {
        const std::size_t rm = (pr - r) % pr;
        const std::complex<double> zf = x[r], zm = std::conj(z[rm]);
        const std::complex<double> s(std::norm(zf + zm) * scale, std::norm(zf - zm) * scale);
        sx[r] = s;
        sy[rm] = s;
      }
      col_plan_.run_unscaled(sx.data(), /*inverse=*/true, /*keep=*/k);
      for (std::size_t r = 0; r < k; ++r) grid_[r * pc + c] = sx[r];
      if (cm != c) {
        col_plan_.run_unscaled(sy.data(), /*inverse=*/true, /*keep=*/k);
        for (std::size_t r = 0; r < k; ++r) grid_[r * pc + cm] = sy[r];
      }
    }
  }, run);

  // Inverse row pass, then the fold of the signed offsets (i, +-j) and
  // (-i, -+j) onto (i, j): R(i, j) + R(i, -j), doubled for i > 0.
  pool.parallel_for((k + rows_per_task - 1) / rows_per_task, [&](std::size_t t) {
    for (std::size_t i = t * rows_per_task; i < std::min(k, (t + 1) * rows_per_task); ++i) {
      std::complex<double>* row = grid_.data() + i * pc;
      row_plan_.run_unscaled(row, /*inverse=*/true, pc);
      const double w = i == 0 ? 1.0 : 2.0;
      for (std::size_t j = 0; j < m; ++j) {
        const std::complex<double> v = j == 0 ? row[0] : row[j] + row[pc - j];
        out_a[i * m + j] = w * v.real();
        if (out_b != nullptr) out_b[i * m + j] = w * v.imag();
      }
    }
  }, run);
}

}  // namespace rgleak::math
