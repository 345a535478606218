#pragma once
// Radix-2 complex FFT (1-D and 2-D). Substrate for the circulant-embedding
// sampler of spatially correlated channel-length fields (process module).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rgleak::math {

/// In-place iterative radix-2 Cooley–Tukey FFT. Size must be a power of two.
/// `inverse` applies the conjugate transform and 1/N scaling.
void fft(std::vector<std::complex<double>>& data, bool inverse);

/// 2-D FFT over a rows x cols row-major array; both dims must be powers of two.
void fft2d(std::vector<std::complex<double>>& data, std::size_t rows, std::size_t cols,
           bool inverse);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed radix-2 FFT plan for one power-of-two length: the twiddle
/// factors and the bit-reversal permutation are hoisted out of the transform.
/// This removes the sequential `w *= w_len` recurrence from the butterfly
/// inner loop (a long dependency chain that also accumulates rounding error),
/// and makes run() allocation-free — the substrate for the Monte-Carlo
/// field sampler's per-column and per-row transforms.
///
/// The butterflies work on explicit (re, im) doubles rather than
/// std::complex, whose multiply carries an inf/NaN recovery branch that
/// keeps the inner loop scalar. For finite inputs the arithmetic is the same
/// operation for operation, so results match the std::complex kernel bit for
/// bit.
class FftPlan {
 public:
  explicit FftPlan(std::size_t n);  // n must be a power of two

  /// Bytes a plan of length n holds in its tables (bit-reversal + twiddles).
  /// The memory cost model charges plans by this, not by transform length,
  /// so budget accounting matches what the plan actually pins.
  static std::size_t table_bytes(std::size_t n) {
    return n * sizeof(std::uint32_t) + (n - 1) * sizeof(std::complex<double>);
  }
  std::size_t plan_bytes() const { return table_bytes(n_); }

  /// In-place transform of `a[0..n)`. Same transform (and scaling convention)
  /// as fft(): `inverse` conjugates the twiddles and applies 1/N.
  void run(std::complex<double>* a, bool inverse) const;

  /// run() without the inverse's 1/N pass. Callers that already multiply
  /// their input by a power-of-two-exact factor fold the 1/N into it: the
  /// scaling then commutes with every butterfly, and the result equals
  /// run()'s bit for bit (outside the subnormal range).
  ///
  /// Only outputs [0, keep) are wanted: butterflies that feed none of them
  /// are skipped (in the stage pairing elements `half` apart, only the first
  /// min(half, keep) of each block). The kept outputs are bit-identical to
  /// the full transform's; the rest are garbage.
  void run_unscaled(std::complex<double>* a, bool inverse, std::size_t keep) const;

 private:
  template <bool Inverse>
  void butterflies(double* a, std::size_t keep) const;

  std::size_t n_;
  std::vector<std::uint32_t> bitrev_;
  /// Forward twiddles w_len^k, k < len/2, concatenated for len = 2, 4, ..., n;
  /// stage `len` starts at offset len/2 - 1.
  std::vector<std::complex<double>> twiddle_;
};

/// Linear (zero-padded, non-circular) 2-D cross-correlation of real
/// rows x cols grids via the FFT. Splitting the transform from the product
/// lets callers correlate T grids pairwise with T forward transforms instead
/// of one per pair (the exact-estimator offset histogram does exactly this).
class CrossCorrelator2D {
 public:
  CrossCorrelator2D(std::size_t rows, std::size_t cols);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  /// Output dims: signed offsets dr in [-(rows-1), rows-1], dc likewise.
  std::size_t out_rows() const { return 2 * rows_ - 1; }
  std::size_t out_cols() const { return 2 * cols_ - 1; }

  /// Forward transform of a row-major rows x cols real grid, zero-padded to
  /// the internal power-of-two dims.
  std::vector<std::complex<double>> transform(const std::vector<double>& grid) const;

  /// Cross-correlation from two forward transforms:
  ///   out(dr, dc) = sum_{r,c} a(r, c) * b(r + dr, c + dc),
  /// returned row-major on an out_rows() x out_cols() grid with (0, 0) at
  /// index (rows()-1, cols()-1).
  std::vector<double> correlate(const std::vector<std::complex<double>>& fa,
                                const std::vector<std::complex<double>>& fb) const;

 private:
  std::size_t rows_, cols_;
  std::size_t pad_rows_, pad_cols_;
};

}  // namespace rgleak::math
