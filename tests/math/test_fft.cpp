#include "math/fft.h"

#include <gtest/gtest.h>

#include <cmath>

#include "math/rng.h"
#include "util/require.h"
#include "util/thread_pool.h"

namespace rgleak::math {
namespace {

using cvec = std::vector<std::complex<double>>;

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(17), 32u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_THROW(next_pow2(0), ContractViolation);
}

// The transform by definition, O(n^2): X_k = sum_j a_j e^{-+2 pi i jk/n},
// with 1/n on the inverse.
cvec naive_dft(const cvec& a, bool inverse) {
  const std::size_t n = a.size();
  const double sign = inverse ? 1.0 : -1.0;
  cvec out(n);
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> sum = 0.0;
    for (std::size_t j = 0; j < n; ++j)
      sum += a[j] * std::polar(1.0, sign * 2.0 * M_PI * static_cast<double>((j * k) % n) /
                                        static_cast<double>(n));
    out[k] = inverse ? sum / static_cast<double>(n) : sum;
  }
  return out;
}

TEST(FftPlan, MatchesTheNaiveDft) {
  Rng rng(11);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                              std::size_t{256}}) {
    const FftPlan plan(n);
    for (const bool inverse : {false, true}) {
      cvec a(n);
      for (auto& x : a) x = {rng.normal(), rng.normal()};
      const cvec want = naive_dft(a, inverse);
      plan.run(a.data(), inverse);
      for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(std::abs(a[i] - want[i]), 0.0, 1e-11 * std::sqrt(static_cast<double>(n)))
            << "n=" << n << " inverse=" << inverse << " i=" << i;
    }
  }
}

TEST(FftPlan, UnscaledInverseTimesOneOverNIsTheScaledInverse) {
  // The field sampler folds the inverse's 1/N into its input; scaling the
  // unscaled inverse by 1/N afterwards must give run()'s bits exactly.
  Rng rng(13);
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{8},
                              std::size_t{256}}) {
    const FftPlan plan(n);
    cvec scaled(n);
    for (auto& x : scaled) x = {rng.normal(), rng.normal()};
    cvec unscaled = scaled;
    plan.run(scaled.data(), /*inverse=*/true);
    plan.run_unscaled(unscaled.data(), /*inverse=*/true, n);
    const double inv = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(unscaled[i].real() * inv, scaled[i].real()) << "n=" << n << " i=" << i;
      EXPECT_EQ(unscaled[i].imag() * inv, scaled[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftPlan, KeepPrunedTransformIsBitIdenticalOnKeptOutputs) {
  // The field sampler keeps only the first rows (columns) of each padded
  // column (row) transform; the pruned butterflies must not touch them.
  Rng rng(19);
  const std::size_t n = 64;
  const FftPlan plan(n);
  for (const std::size_t keep : {std::size_t{1}, std::size_t{5}, std::size_t{16},
                                 std::size_t{33}, n}) {
    for (const bool inverse : {false, true}) {
      cvec full(n);
      for (auto& x : full) x = {rng.normal(), rng.normal()};
      cvec pruned = full;
      plan.run_unscaled(full.data(), inverse, n);
      plan.run_unscaled(pruned.data(), inverse, keep);
      for (std::size_t i = 0; i < keep; ++i) {
        EXPECT_EQ(pruned[i].real(), full[i].real()) << "keep=" << keep << " i=" << i;
        EXPECT_EQ(pruned[i].imag(), full[i].imag()) << "keep=" << keep << " i=" << i;
      }
    }
  }
}

TEST(FftPlan, RoundTripIsExactToTolerance) {
  Rng rng(17);
  const FftPlan plan(64);
  cvec v(64);
  for (auto& x : v) x = {rng.normal(), rng.normal()};
  const cvec orig = v;
  plan.run(v.data(), false);
  plan.run(v.data(), true);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_NEAR(std::abs(v[i] - orig[i]), 0.0, 1e-12);
}

TEST(FftPlan, PlanBytesCountsBothTables) {
  EXPECT_EQ(FftPlan(1).plan_bytes(), 4u);
  EXPECT_EQ(FftPlan(256).plan_bytes(), 256u * 4 + 255u * 16);
}

TEST(FftPlan, RejectsNonPow2) { EXPECT_THROW(FftPlan(6), ContractViolation); }

// The folded autocorrelation by definition: sum of g(s) g(t) over ordered
// site pairs at absolute offset (i, j).
std::vector<double> brute_force_folded(const std::vector<double>& g, std::size_t rows,
                                       std::size_t cols) {
  std::vector<double> out(rows * cols, 0.0);
  for (std::size_t s = 0; s < rows * cols; ++s)
    for (std::size_t t = 0; t < rows * cols; ++t) {
      const std::size_t i = s / cols > t / cols ? s / cols - t / cols : t / cols - s / cols;
      const std::size_t j = s % cols > t % cols ? s % cols - t % cols : t % cols - s % cols;
      out[i * cols + j] += g[s] * g[t];
    }
  return out;
}

TEST(FoldedAutocorrelation2D, MatchesBruteForceOnRandomGrids) {
  // Square, oblong, odd, single-row, single-column and 1x1 grids; two grids
  // packed in one transform and one grid alone; 1 and 3 threads give the
  // same bits.
  Rng rng(7);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{4, 4},
                                   {3, 7},
                                   {1, 5},
                                   {5, 1},
                                   {1, 1},
                                   {6, 2},
                                   {9, 13},
                                   {17, 6}}) {
    std::vector<double> a(rows * cols), b(rows * cols);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = 0.01 * rng.normal();  // packed orders differ in scale
    const std::vector<double> want_a = brute_force_folded(a, rows, cols);
    const std::vector<double> want_b = brute_force_folded(b, rows, cols);
    double scale_a = 0.0, scale_b = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      scale_a += a[i] * a[i];
      scale_b += b[i] * b[i];
    }

    FoldedAutocorrelation2D acf(rows, cols);
    std::vector<double> ra(a.size()), rb(b.size()), alone(a.size());
    acf.correlate(a.data(), b.data(), ra.data(), rb.data(), util::ThreadPool::shared(1));
    acf.correlate(a.data(), nullptr, alone.data(), nullptr, util::ThreadPool::shared(1));
    for (std::size_t o = 0; o < a.size(); ++o) {
      EXPECT_NEAR(ra[o], want_a[o], 1e-12 * scale_a) << rows << "x" << cols << " offset " << o;
      EXPECT_NEAR(rb[o], want_b[o], 1e-12 * scale_a) << rows << "x" << cols << " offset " << o;
      EXPECT_NEAR(alone[o], want_a[o], 1e-12 * scale_a) << rows << "x" << cols << " offset " << o;
    }
    EXPECT_NEAR(rb[0], scale_b, 1e-12 * scale_a);

    // In place, on three threads: the same bits.
    std::vector<double> a3 = a, b3 = b;
    acf.correlate(a3.data(), b3.data(), a3.data(), b3.data(), util::ThreadPool::shared(3));
    for (std::size_t o = 0; o < a.size(); ++o) {
      EXPECT_EQ(a3[o], ra[o]) << rows << "x" << cols << " offset " << o;
      EXPECT_EQ(b3[o], rb[o]) << rows << "x" << cols << " offset " << o;
    }
  }
}

TEST(FoldedAutocorrelation2D, GridBytesCountLiveRowsTimesPaddedColumns) {
  EXPECT_EQ(FoldedAutocorrelation2D::grid_bytes(1, 1), 16u);
  EXPECT_EQ(FoldedAutocorrelation2D::grid_bytes(3, 7), 3u * 16 * 16);
  EXPECT_EQ(FoldedAutocorrelation2D::grid_bytes(256, 256), 256u * 512 * 16);
}

TEST(FoldedAutocorrelation2D, RejectsAnEmptyGridAndAHalfPair) {
  EXPECT_THROW(FoldedAutocorrelation2D(0, 4), ContractViolation);
  FoldedAutocorrelation2D acf(2, 2);
  std::vector<double> a(4, 1.0), out(4);
  EXPECT_THROW(acf.correlate(a.data(), a.data(), out.data(), nullptr, util::ThreadPool::shared(1)),
               ContractViolation);
}

}  // namespace
}  // namespace rgleak::math
