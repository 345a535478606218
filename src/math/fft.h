#pragma once
// Radix-2 complex FFT plans. Substrate for the circulant-embedding sampler of
// spatially correlated channel-length fields (process module) and for the
// exact estimator's offset sums (folded 2-D autocorrelations).

#include <complex>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rgleak::util {
class RunControl;
class ThreadPool;
}  // namespace rgleak::util

namespace rgleak::math {

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// Precomputed radix-2 FFT plan for one power-of-two length: the twiddle
/// factors and the bit-reversal permutation are hoisted out of the transform.
/// This removes the sequential `w *= w_len` recurrence from the butterfly
/// inner loop (a long dependency chain that also accumulates rounding error),
/// and makes run() allocation-free — the substrate for the Monte-Carlo
/// field sampler's per-column and per-row transforms and for
/// FoldedAutocorrelation2D.
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

  /// In-place radix-2 Cooley–Tukey transform of `a[0..n)`: X_k =
  /// sum_j a_j e^{-2 pi i jk/n}; `inverse` conjugates the twiddles and
  /// applies 1/N.
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

/// Linear (zero-padded, non-circular) 2-D autocorrelations of real
/// rows x cols grids, folded onto absolute offsets:
///   out(i, j) = sum of a(s) a(t) over the ordered site pairs (s, t) with
///               |row(s) - row(t)| = i and |col(s) - col(t)| = j,
/// for i < rows, j < cols; out(0, 0) = sum a^2. For an indicator grid this is
/// the histogram of pair offsets.
///
/// Two grids share one complex transform: a goes in the real part, b in the
/// imaginary part, and the spectrum split
///   |A(f)|^2 + i |B(f)|^2 = (|Z(f) + conj Z(-f)|^2 + i |Z(f) - conj Z(-f)|^2) / 4
/// lets one inverse return both autocorrelations. The forward row pass covers
/// the live rows only; the column pass takes column f and its mirror -f
/// together (forward, split, inverse down to the live rows); the inverse row
/// pass covers the live rows again. Rows past the live ones are zero in every
/// pass and are never stored, so a run holds rows x P complex cells
/// (P = next_pow2(2 cols - 1)) plus four padded columns per column task.
class FoldedAutocorrelation2D {
 public:
  FoldedAutocorrelation2D(std::size_t rows, std::size_t cols);

  /// Bytes of the transform grid the object holds: rows x
  /// next_pow2(2 cols - 1) complex cells.
  static std::uint64_t grid_bytes(std::size_t rows, std::size_t cols);

  /// Folded autocorrelations of the row-major rows x cols grids `a` and `b`
  /// into `out_a` and `out_b` (same shape; each output may be its input).
  /// `b` and `out_b` may both be null (one grid). The row and column
  /// transforms are spread over `pool`, and `run` is polled before each
  /// task; the result is the same for every thread count.
  void correlate(const double* a, const double* b, double* out_a, double* out_b,
                 util::ThreadPool& pool, const util::RunControl* run = nullptr);

 private:
  std::size_t rows_, cols_;
  std::size_t pad_rows_, pad_cols_;
  FftPlan col_plan_, row_plan_;
  std::vector<std::complex<double>> grid_;  // rows_ x pad_cols_
};

}  // namespace rgleak::math
