#include "process/field_sampler.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "math/fft.h"
#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::process {

std::size_t GridFieldSampler::padded_dim(std::size_t n, double pitch_nm, double scale,
                                         double range_nm) {
  // Checked first: the members sized from it are built before the
  // constructor body runs. rho is evaluated at hypot(dx/ax, dy/ay).
  RGLEAK_REQUIRE(pitch_nm > 0.0, "site pitch must be positive");
  RGLEAK_REQUIRE(scale > 0.0, "anisotropy scales must be positive");
  const double range_sites = range_nm / (pitch_nm / scale);
  const double want =
      static_cast<double>(n) + std::min(range_sites, 4.0 * static_cast<double>(n));
  return math::next_pow2(std::max<std::size_t>(static_cast<std::size_t>(std::ceil(want)), 2));
}

std::size_t GridFieldSampler::footprint_bytes() const {
  return sqrt_eig_.capacity() * sizeof(double) + cached_.capacity() * sizeof(double) +
         col_fft_.plan_bytes() + row_fft_.plan_bytes();
}

// Periodic embedding (powers of two for the FFT). The embedding is exact
// when the padded half-domain exceeds the kernel range (no wrap-around
// correlation); pad up to that point, capped at 4x the grid to bound memory
// for very long-range kernels (the residual shows up in
// clamped_eigenvalue_fraction()).
GridFieldSampler::GridFieldSampler(std::size_t rows, std::size_t cols, double dx_nm, double dy_nm,
                                   const SpatialCorrelation& rho, double sigma,
                                   CorrelationAnisotropy anisotropy)
    : rows_(rows),
      cols_(cols),
      prow_(padded_dim(rows, dy_nm, anisotropy.scale_y, rho.range_nm())),
      pcol_(padded_dim(cols, dx_nm, anisotropy.scale_x, rho.range_nm())),
      col_fft_(prow_),
      row_fft_(pcol_) {
  RGLEAK_REQUIRE(rows >= 1 && cols >= 1, "grid must be non-empty");
  RGLEAK_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
  dx_nm /= anisotropy.scale_x;
  dy_nm /= anisotropy.scale_y;

  // The big arena of this constructor: the padded kernel grid and the
  // eigenvalue table scale with prow_*pcol_. An injected (or real) bad_alloc
  // here is translated to ResourceError by callers.
  RGLEAK_FAILPOINT("process.sampler.alloc");

  // First row of the block-circulant covariance (wrap-around distances),
  // column-major like the draw's noise.
  std::vector<std::complex<double>> kernel(prow_ * pcol_);
  const double var = sigma * sigma;
  for (std::size_t c = 0; c < pcol_; ++c) {
    const double dxv = static_cast<double>(std::min(c, pcol_ - c)) * dx_nm;
    for (std::size_t r = 0; r < prow_; ++r) {
      const double dyv = static_cast<double>(std::min(r, prow_ - r)) * dy_nm;
      kernel[c * prow_ + r] = var * rho(std::hypot(dxv, dyv));
    }
  }

  // Its 2-D transform is the eigenvalue table, on the draw's own plans: each
  // column in place, then each row through a gather buffer.
  for (std::size_t c = 0; c < pcol_; ++c) col_fft_.run(kernel.data() + c * prow_, false);
  std::vector<std::complex<double>> row(pcol_);
  for (std::size_t r = 0; r < prow_; ++r) {
    for (std::size_t c = 0; c < pcol_; ++c) row[c] = kernel[c * prow_ + r];
    row_fft_.run(row.data(), false);
    for (std::size_t c = 0; c < pcol_; ++c) kernel[c * prow_ + r] = row[c];
  }

  // The inverse column and row transforms' 1/prow_ and 1/pcol_ passes fold
  // in here. Both are powers of two, so the product is exact and scaling the
  // noise by it up front commutes with every butterfly: the draw keeps the
  // bits of scaling after each pass.
  const double inv_np = 1.0 / static_cast<double>(prow_) / static_cast<double>(pcol_);
  sqrt_eig_.resize(prow_ * pcol_);
  double max_eig = 0.0, worst_neg = 0.0;
  for (std::size_t i = 0; i < prow_ * pcol_; ++i) {
    const double lambda = kernel[i].real();  // imaginary parts are FFT noise
    max_eig = std::max(max_eig, lambda);
    worst_neg = std::min(worst_neg, lambda);
    sqrt_eig_[i] = (lambda > 0.0 ? std::sqrt(lambda) : 0.0) * inv_np;
  }
  clamped_fraction_ = max_eig > 0.0 ? -worst_neg / max_eig : 0.0;

  // Mild clamping (imperfect embedding of a valid kernel) is expected —
  // LinearCorrelation sits around a few percent. A large fraction means the
  // correlation function itself is not positive semi-definite and the sampled
  // fields would not have the requested covariance.
  constexpr double kMaxClampedFraction = 0.25;
  if (clamped_fraction_ > kMaxClampedFraction) {
    std::ostringstream os;
    os << "grid field sampler: correlation '" << rho.name()
       << "' is not positive semi-definite on the " << prow_ << "x" << pcol_
       << " periodic embedding (most negative eigenvalue " << worst_neg << ", largest " << max_eig
       << ", clamped fraction " << clamped_fraction_ << " > " << kMaxClampedFraction << ")";
    throw NumericalError(os.str());
  }
}

std::vector<double> GridFieldSampler::sample(math::Rng& rng) {
  FieldWorkspace ws;
  std::vector<double> field;
  sample_into(rng, ws, field);
  return field;
}

void GridFieldSampler::sample_into(math::Rng& rng, FieldWorkspace& ws, std::vector<double>& out) {
  out.resize(rows_ * cols_);
  if (has_cached_) {
    // Consume the spare field from the last FFT. The cache buffer keeps its
    // capacity for the next FFT round — no allocation churn.
    has_cached_ = false;
    std::copy(cached_.begin(), cached_.end(), out.begin());
    return;
  }
  // Column pass, one padded column at a time while it sits in L1: white
  // noise, coloured by the column-major eigenvalue roots, inverse-transformed
  // with only the rows_ kept rows wanted. Consecutive columns are consecutive
  // in the stream, so the per-column fills draw what one bulk fill of the
  // column-major grid would; and a complex array is layout-compatible with
  // (re, im) double pairs, so each fill draws the same stream as elementwise
  // {normal(), normal()} fills.
  ws.scratch.resize(prow_ * pcol_);
  for (std::size_t c = 0; c < pcol_; ++c) {
    std::complex<double>* col = ws.scratch.data() + c * prow_;
    const double* root = sqrt_eig_.data() + c * prow_;
    rng.normal_fill(reinterpret_cast<double*>(col), 2 * prow_);
    for (std::size_t r = 0; r < prow_; ++r) col[r] *= root[r];
    col_fft_.run_unscaled(col, /*inverse=*/true, /*keep=*/rows_);
  }
  // Row pass over the kept rows only: transpose them out of the column-major
  // grid a few columns at a time (each output row segment is whole cache
  // lines), then transform each with only the cols_ kept columns wanted.
  constexpr std::size_t kBlock = 8;
  ws.freq.resize(rows_ * pcol_);
  for (std::size_t c0 = 0; c0 < pcol_; c0 += kBlock) {
    const std::size_t c1 = std::min(c0 + kBlock, pcol_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = c0; c < c1; ++c) ws.freq[r * pcol_ + c] = ws.scratch[c * prow_ + r];
  }
  for (std::size_t r = 0; r < rows_; ++r)
    row_fft_.run_unscaled(ws.freq.data() + r * pcol_, /*inverse=*/true, /*keep=*/cols_);

  // y = sqrt(N) * IFFT(sqrt(lambda) .* eps) has E[Re(y) Re(y)^T] = C; the
  // imaginary part is a second independent sample that we cache. (The 1/N
  // of the IFFT is already in sqrt_eig_; sqrt(N) is not a power of two on
  // non-square embeddings, so it stays here.)
  const double scale = std::sqrt(static_cast<double>(prow_ * pcol_));
  cached_.resize(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) {
      const auto v = ws.freq[r * pcol_ + c] * scale;
      out[r * cols_ + c] = v.real();
      cached_[r * cols_ + c] = v.imag();
    }
  has_cached_ = true;
}

void GridFieldSampler::set_cached_field(std::vector<double> field) {
  RGLEAK_REQUIRE(field.size() == rows_ * cols_,
                 "cached field must match the sampler grid");
  cached_ = std::move(field);
  has_cached_ = true;
}

}  // namespace rgleak::process
