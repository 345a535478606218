#pragma once
// Sampling of spatially correlated within-die parameter fields.
//
// The full-chip Monte-Carlo validator needs draws of the WID channel-length
// deviation at every placement site with covariance
//   cov(s1, s2) = sigma_wid^2 * rho_wid(||s1 - s2||).
// For regular grids we use circulant embedding (Dietrich & Newsam): embed the
// stationary covariance in a periodic domain, diagonalize it with a 2-D FFT,
// clamp the negative eigenvalues to zero and colour white noise, O(N log N).
// The draws have exactly the covariance that the clamped embedding realizes,
// IFFT(max(lambda, 0)), which realized_covariance() reports. It differs from
// the target kernel where clamping moved it, mostly at offset 0 (the marginal
// variance is inflated) and more so on smaller embeddings; the MC engine
// sizes its embedding by the exact effect of that difference on the chip's
// leakage mean and sigma (mc/full_chip_mc.h).

#include <cstddef>
#include <memory>
#include <vector>

#include "math/fft.h"
#include "math/rng.h"
#include "process/spatial_correlation.h"
#include "process/variation.h"

namespace rgleak::process {

/// Caller-owned scratch for the sampler's allocation-free sample_into()
/// path. One workspace per worker/stream; buffers grow to the sampler's
/// padded dimensions on first use and are reused afterwards, so the
/// steady-state sampling loop performs zero heap allocations.
struct FieldWorkspace {
  std::vector<std::complex<double>> freq;     ///< kept rows x padded cols, row pass
  std::vector<std::complex<double>> scratch;  ///< padded grid, column-major, column pass
};

/// Samples zero-mean stationary Gaussian fields on a k x m grid of sites with
/// spacing (dx, dy) nm, covariance sigma^2 * rho(effective distance), where
/// the effective distance applies the optional per-axis anisotropy scaling.
///
/// The embedding (eigenvalue roots, FFT plans, realized covariance) is
/// immutable after construction and shared by every copy of a sampler; a
/// copy owns only its spare-field cache. Copies therefore draw concurrently
/// from one embedding, one copy per stream.
class GridFieldSampler {
 public:
  /// Draws on the default embedding: padded_dim() along each axis.
  GridFieldSampler(std::size_t rows, std::size_t cols, double dx_nm, double dy_nm,
                   const SpatialCorrelation& rho, double sigma,
                   CorrelationAnisotropy anisotropy = {});

  /// Draws on an explicit padded_rows x padded_cols embedding: powers of two
  /// no smaller than the grid.
  GridFieldSampler(std::size_t rows, std::size_t cols, double dx_nm, double dy_nm,
                   const SpatialCorrelation& rho, double sigma, CorrelationAnisotropy anisotropy,
                   std::size_t padded_rows, std::size_t padded_cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Padded periodic embedding dims (powers of two >= rows/cols); the FFT
  /// buffers and eigenvalue table are this size, so they dominate footprint.
  std::size_t padded_rows() const { return emb_->prow; }
  std::size_t padded_cols() const { return emb_->pcol; }

  /// The default padded dimension along an axis of `n` sites at `pitch_nm`
  /// spacing, which the kernel's anisotropy scales by `scale`, under a kernel
  /// of range `range_nm`: the minimal circulant embedding,
  /// next_pow2(n + min(range, n - 1)) with the range in sites. It holds every
  /// grid offset the kernel reaches once, without wrap-around.
  static std::size_t padded_dim(std::size_t n, double pitch_nm, double scale, double range_nm);

  /// The largest padded dimension the MC engine builds along such an axis:
  /// the grid padded by the whole kernel range, capped at 4x the grid,
  /// next_pow2(n + min(range, 4 n)).
  static std::size_t max_padded_dim(std::size_t n, double pitch_nm, double scale,
                                    double range_nm);

  /// Bytes of the shared embedding, held once whatever the number of copies:
  /// the eigenvalue-root table, the realized covariance, and the column and
  /// row FFT plans.
  std::size_t embedding_bytes() const;

  /// Bytes one copy pins for its lifetime: the spare-field cache. Per-draw
  /// FFT scratch lives in FieldWorkspace and is charged by the owner of the
  /// workspace instead.
  std::size_t footprint_bytes() const { return cached_.capacity() * sizeof(double); }

  /// Bytes a FieldWorkspace grows to when used with this sampler: the
  /// column-pass scratch over the whole padded grid plus the row-pass buffer
  /// over the kept rows.
  std::size_t workspace_bytes() const {
    return (emb_->prow + rows_) * emb_->pcol * sizeof(std::complex<double>);
  }

  /// One field sample, row-major rows() x cols(). Each call consumes fresh
  /// randomness; successive samples are independent.
  std::vector<double> sample(math::Rng& rng);

  /// Allocation-free variant: writes the field into `out` (resized to
  /// rows()*cols()) using `ws` for FFT scratch. Draws the same values in the
  /// same order as sample() for an identical RNG state. After the first call
  /// with a given workspace, the steady state performs zero heap allocations.
  ///
  /// Each padded column is filled with white noise, coloured and
  /// inverse-transformed while it sits in L1; then only the rows() kept rows
  /// are transposed and row-transformed.
  void sample_into(math::Rng& rng, FieldWorkspace& ws, std::vector<double>& out);

  /// Largest negative embedding eigenvalue that was clamped to zero, as a
  /// fraction of the largest eigenvalue (0 when the embedding was exactly
  /// non-negative). Diagnostic for kernel validity.
  double clamped_eigenvalue_fraction() const { return emb_->clamped_fraction; }

  /// The covariance the draws realize, IFFT(max(lambda, 0)), per grid offset:
  /// entry |drow| * cols() + |dcol|, for |drow| < rows() and |dcol| < cols()
  /// (the embedded kernel is even in each axis, so the sign of an offset does
  /// not matter). Entry 0 is the realized marginal variance.
  const std::vector<double>& realized_covariance() const { return emb_->realized; }

  /// Checkpoint access to the spare-field cache: each FFT yields two
  /// independent fields, and the second is held for the next sample() call.
  /// A resumed run must restore this cache or its stream diverges from the
  /// uninterrupted one.
  bool has_cached_field() const { return has_cached_; }
  const std::vector<double>& cached_field() const { return cached_; }
  /// Restores a cache captured by cached_field(); size must be rows*cols.
  void set_cached_field(std::vector<double> field);

 private:
  /// The immutable part, built once by the constructor.
  struct Embedding {
    std::size_t prow, pcol;  // padded periodic grid (powers of two)
    /// Sqrt of the clamped eigenvalues times the two inverse transforms' 1/N
    /// factors (1 / (prow * pcol), a power of two, so the fold is exact),
    /// stored COLUMN-major (index c * prow + r): the white noise is filled
    /// and coloured directly in the layout the contiguous column pass wants.
    std::vector<double> sqrt_eig;
    math::FftPlan col_fft;  // length prow, one per padded column
    math::FftPlan row_fft;  // length pcol, one per kept row
    double clamped_fraction = 0.0;
    std::vector<double> realized;  // rows x cols offset covariance

    Embedding(std::size_t rows, std::size_t cols, double dx_nm, double dy_nm,
              const SpatialCorrelation& rho, double sigma, std::size_t padded_rows,
              std::size_t padded_cols);
  };

  std::size_t rows_, cols_;  // requested grid
  std::shared_ptr<const Embedding> emb_;
  std::vector<double> cached_;  // second independent field from the last FFT
  bool has_cached_ = false;
};

}  // namespace rgleak::process
