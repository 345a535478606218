#include "process/field_sampler.h"

#include <algorithm>
#include <cmath>
#include <complex>
#include <sstream>

#include "math/fft.h"
#include "util/failpoint.h"
#include "util/require.h"

namespace rgleak::process {

namespace {

/// The kernel range along an axis, in sites: rho is evaluated at
/// hypot(dx/ax, dy/ay), so a site step is pitch / scale.
double range_sites(double pitch_nm, double scale, double range_nm) {
  // Checked here: the embedding is sized from it before anything is built.
  RGLEAK_REQUIRE(pitch_nm > 0.0, "site pitch must be positive");
  RGLEAK_REQUIRE(scale > 0.0, "anisotropy scales must be positive");
  return range_nm / (pitch_nm / scale);
}

std::size_t pow2_at_least(double want) {
  return math::next_pow2(std::max<std::size_t>(static_cast<std::size_t>(std::ceil(want)), 2));
}

}  // namespace

std::size_t GridFieldSampler::padded_dim(std::size_t n, double pitch_nm, double scale,
                                         double range_nm) {
  const double reach = std::min(range_sites(pitch_nm, scale, range_nm),
                                static_cast<double>(n > 0 ? n - 1 : 0));
  return pow2_at_least(static_cast<double>(n) + reach);
}

std::size_t GridFieldSampler::max_padded_dim(std::size_t n, double pitch_nm, double scale,
                                             double range_nm) {
  const double reach =
      std::min(range_sites(pitch_nm, scale, range_nm), 4.0 * static_cast<double>(n));
  return pow2_at_least(static_cast<double>(n) + reach);
}

std::size_t GridFieldSampler::embedding_bytes() const {
  return (emb_->sqrt_eig.capacity() + emb_->realized.capacity()) * sizeof(double) +
         emb_->col_fft.plan_bytes() + emb_->row_fft.plan_bytes();
}

GridFieldSampler::GridFieldSampler(std::size_t rows, std::size_t cols, double dx_nm,
                                   double dy_nm, const SpatialCorrelation& rho, double sigma,
                                   CorrelationAnisotropy anisotropy)
    : GridFieldSampler(rows, cols, dx_nm, dy_nm, rho, sigma, anisotropy,
                       padded_dim(rows, dy_nm, anisotropy.scale_y, rho.range_nm()),
                       padded_dim(cols, dx_nm, anisotropy.scale_x, rho.range_nm())) {}

GridFieldSampler::GridFieldSampler(std::size_t rows, std::size_t cols, double dx_nm,
                                   double dy_nm, const SpatialCorrelation& rho, double sigma,
                                   CorrelationAnisotropy anisotropy, std::size_t padded_rows,
                                   std::size_t padded_cols)
    : rows_(rows), cols_(cols) {
  RGLEAK_REQUIRE(rows >= 1 && cols >= 1, "grid must be non-empty");
  RGLEAK_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
  RGLEAK_REQUIRE(dx_nm > 0.0 && dy_nm > 0.0, "site pitch must be positive");
  RGLEAK_REQUIRE(anisotropy.scale_x > 0.0 && anisotropy.scale_y > 0.0,
                 "anisotropy scales must be positive");
  RGLEAK_REQUIRE(padded_rows >= rows && padded_cols >= cols,
                 "the embedding must hold the grid");
  emb_ = std::make_shared<const Embedding>(rows, cols, dx_nm / anisotropy.scale_x,
                                           dy_nm / anisotropy.scale_y, rho, sigma, padded_rows,
                                           padded_cols);
}

GridFieldSampler::Embedding::Embedding(std::size_t rows, std::size_t cols, double dx_nm,
                                       double dy_nm, const SpatialCorrelation& rho,
                                       double sigma, std::size_t padded_rows,
                                       std::size_t padded_cols)
    : prow(padded_rows), pcol(padded_cols), col_fft(prow), row_fft(pcol) {
  // The big arena of this constructor: the padded kernel grid and the
  // eigenvalue table scale with prow*pcol. An injected (or real) bad_alloc
  // here is translated to ResourceError by callers.
  RGLEAK_FAILPOINT("process.sampler.alloc");

  // First row of the block-circulant covariance (wrap-around distances),
  // column-major like the draw's noise.
  std::vector<std::complex<double>> kernel(prow * pcol);
  const double var = sigma * sigma;
  for (std::size_t c = 0; c < pcol; ++c) {
    const double dxv = static_cast<double>(std::min(c, pcol - c)) * dx_nm;
    for (std::size_t r = 0; r < prow; ++r) {
      const double dyv = static_cast<double>(std::min(r, prow - r)) * dy_nm;
      kernel[c * prow + r] = var * rho(std::hypot(dxv, dyv));
    }
  }

  // Its 2-D transform is the eigenvalue table, on the draw's own plans: each
  // column in place, then each row through a gather buffer.
  for (std::size_t c = 0; c < pcol; ++c) col_fft.run(kernel.data() + c * prow, false);
  std::vector<std::complex<double>> row(pcol);
  for (std::size_t r = 0; r < prow; ++r) {
    for (std::size_t c = 0; c < pcol; ++c) row[c] = kernel[c * prow + r];
    row_fft.run(row.data(), false);
    for (std::size_t c = 0; c < pcol; ++c) kernel[c * prow + r] = row[c];
  }

  // The inverse column and row transforms' 1/prow and 1/pcol passes fold
  // in here. Both are powers of two, so the product is exact and scaling the
  // noise by it up front commutes with every butterfly: the draw keeps the
  // bits of scaling after each pass. The kernel grid keeps the clamped
  // eigenvalues, scaled the same way, for the realized covariance below.
  const double inv_np = 1.0 / static_cast<double>(prow) / static_cast<double>(pcol);
  sqrt_eig.resize(prow * pcol);
  double max_eig = 0.0, worst_neg = 0.0;
  for (std::size_t i = 0; i < prow * pcol; ++i) {
    const double lambda = kernel[i].real();  // imaginary parts are FFT noise
    max_eig = std::max(max_eig, lambda);
    worst_neg = std::min(worst_neg, lambda);
    const double kept = lambda > 0.0 ? lambda : 0.0;
    sqrt_eig[i] = std::sqrt(kept) * inv_np;
    kernel[i] = kept * inv_np;
  }
  clamped_fraction = max_eig > 0.0 ? -worst_neg / max_eig : 0.0;

  // Mild clamping (imperfect embedding of a valid kernel) is expected —
  // LinearCorrelation sits around a few percent. A large fraction means the
  // correlation function itself is not positive semi-definite and the sampled
  // fields would not have the requested covariance.
  constexpr double kMaxClampedFraction = 0.25;
  if (clamped_fraction > kMaxClampedFraction) {
    std::ostringstream os;
    os << "grid field sampler: correlation '" << rho.name()
       << "' is not positive semi-definite on the " << prow << "x" << pcol
       << " periodic embedding (most negative eigenvalue " << worst_neg << ", largest " << max_eig
       << ", clamped fraction " << clamped_fraction << " > " << kMaxClampedFraction << ")";
    throw NumericalError(os.str());
  }

  // The realized covariance: the inverse transform of the clamped
  // eigenvalues, wanted only at the grid's own offsets, so each pass keeps
  // the rows (then columns) of the grid. The clamped spectrum is real and
  // even, so the result is real.
  for (std::size_t c = 0; c < pcol; ++c)
    col_fft.run_unscaled(kernel.data() + c * prow, /*inverse=*/true, /*keep=*/rows);
  realized.resize(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < pcol; ++c) row[c] = kernel[c * prow + r];
    row_fft.run_unscaled(row.data(), /*inverse=*/true, /*keep=*/cols);
    for (std::size_t c = 0; c < cols; ++c) realized[r * cols + c] = row[c].real();
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
  const Embedding& e = *emb_;
  const std::size_t prow = e.prow, pcol = e.pcol;
  // Column pass, one padded column at a time while it sits in L1: white
  // noise, coloured by the column-major eigenvalue roots, inverse-transformed
  // with only the rows_ kept rows wanted. Consecutive columns are consecutive
  // in the stream, so the per-column fills draw what one bulk fill of the
  // column-major grid would; and a complex array is layout-compatible with
  // (re, im) double pairs, so each fill draws the same stream as elementwise
  // {normal(), normal()} fills.
  ws.scratch.resize(prow * pcol);
  for (std::size_t c = 0; c < pcol; ++c) {
    std::complex<double>* col = ws.scratch.data() + c * prow;
    const double* root = e.sqrt_eig.data() + c * prow;
    rng.normal_fill(reinterpret_cast<double*>(col), 2 * prow);
    for (std::size_t r = 0; r < prow; ++r) col[r] *= root[r];
    e.col_fft.run_unscaled(col, /*inverse=*/true, /*keep=*/rows_);
  }
  // Row pass over the kept rows only: transpose them out of the column-major
  // grid a few columns at a time (each output row segment is whole cache
  // lines), then transform each with only the cols_ kept columns wanted.
  constexpr std::size_t kBlock = 8;
  ws.freq.resize(rows_ * pcol);
  for (std::size_t c0 = 0; c0 < pcol; c0 += kBlock) {
    const std::size_t c1 = std::min(c0 + kBlock, pcol);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = c0; c < c1; ++c) ws.freq[r * pcol + c] = ws.scratch[c * prow + r];
  }
  for (std::size_t r = 0; r < rows_; ++r)
    e.row_fft.run_unscaled(ws.freq.data() + r * pcol, /*inverse=*/true, /*keep=*/cols_);

  // y = sqrt(N) * IFFT(sqrt(lambda) .* eps) has E[Re(y) Re(y)^T] = C; the
  // imaginary part is a second independent sample that we cache. (The 1/N
  // of the IFFT is already in sqrt_eig; sqrt(N) is not a power of two on
  // non-square embeddings, so it stays here.)
  const double scale = std::sqrt(static_cast<double>(prow * pcol));
  cached_.resize(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) {
      const auto v = ws.freq[r * pcol + c] * scale;
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
