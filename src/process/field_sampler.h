#pragma once
// Sampling of spatially correlated within-die parameter fields.
//
// The full-chip Monte-Carlo validator needs draws of the WID channel-length
// deviation at every placement site with covariance
//   cov(s1, s2) = sigma_wid^2 * rho_wid(||s1 - s2||).
// For regular grids we use circulant embedding (Dietrich & Newsam): embed the
// stationary covariance in a periodic domain, diagonalize it with a 2-D FFT,
// and color white noise — exact (up to eigenvalue clamping) and
// O(N log N).

#include <cstddef>
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
class GridFieldSampler {
 public:
  GridFieldSampler(std::size_t rows, std::size_t cols, double dx_nm, double dy_nm,
                   const SpatialCorrelation& rho, double sigma,
                   CorrelationAnisotropy anisotropy = {});

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Padded periodic embedding dims (powers of two >= rows/cols); the FFT
  /// buffers and eigenvalue table are this size, so they dominate footprint.
  std::size_t padded_rows() const { return prow_; }
  std::size_t padded_cols() const { return pcol_; }

  /// The padded dimension the constructor chooses along an axis of `n` sites
  /// at `pitch_nm` spacing, which the kernel's anisotropy scales by `scale`,
  /// under a kernel of range `range_nm` — exposed so memory admission can
  /// price an MC run without building a sampler.
  static std::size_t padded_dim(std::size_t n, double pitch_nm, double scale, double range_nm);

  /// Bytes pinned by this sampler instance for its lifetime: the eigenvalue
  /// table, the spare-field cache, and its column and row FFT plans. Per-draw
  /// FFT scratch lives in FieldWorkspace and is charged by the owner of the
  /// workspace instead.
  std::size_t footprint_bytes() const;

  /// Bytes a FieldWorkspace grows to when used with this sampler: the
  /// column-pass scratch over the whole padded grid plus the row-pass buffer
  /// over the kept rows.
  std::size_t workspace_bytes() const {
    return (prow_ + rows_) * pcol_ * sizeof(std::complex<double>);
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
  double clamped_eigenvalue_fraction() const { return clamped_fraction_; }

  /// Checkpoint access to the spare-field cache: each FFT yields two
  /// independent fields, and the second is held for the next sample() call.
  /// A resumed run must restore this cache or its stream diverges from the
  /// uninterrupted one.
  bool has_cached_field() const { return has_cached_; }
  const std::vector<double>& cached_field() const { return cached_; }
  /// Restores a cache captured by cached_field(); size must be rows*cols.
  void set_cached_field(std::vector<double> field);

 private:
  std::size_t rows_, cols_;      // requested grid
  std::size_t prow_, pcol_;      // padded periodic grid (powers of two)
  /// Sqrt of embedding eigenvalues times the two inverse transforms' 1/N
  /// factors (1 / (prow_ * pcol_), a power of two, so the fold is exact),
  /// stored COLUMN-major (index c * prow_ + r): the white noise is filled and
  /// colored directly in the layout the contiguous column pass wants.
  std::vector<double> sqrt_eig_;
  math::FftPlan col_fft_;  // length prow_, one per padded column
  math::FftPlan row_fft_;  // length pcol_, one per kept row
  double clamped_fraction_ = 0.0;
  std::vector<double> cached_;   // second independent field from the last FFT
  bool has_cached_ = false;
};

}  // namespace rgleak::process
