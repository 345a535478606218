#include "process/field_sampler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "math/stats.h"
#include "util/require.h"

namespace rgleak::process {
namespace {

TEST(GridFieldSampler, MarginalMomentsMatch) {
  const ExponentialCorrelation rho(500.0);
  GridFieldSampler sampler(8, 8, 100.0, 100.0, rho, 2.0);
  math::Rng rng(1);
  math::RunningStats acc;
  for (int t = 0; t < 2000; ++t)
    for (double v : sampler.sample(rng)) acc.add(v);
  EXPECT_NEAR(acc.mean(), 0.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(GridFieldSampler, LagCorrelationMatchesKernel) {
  const ExponentialCorrelation rho(300.0);
  const std::size_t k = 6, m = 6;
  const double pitch = 100.0;
  GridFieldSampler sampler(k, m, pitch, pitch, rho, 1.0);
  math::Rng rng(2);

  // Accumulate correlation between site (0,0) and several offsets.
  math::RunningCovariance lag_x1, lag_x3, lag_diag;
  for (int t = 0; t < 30000; ++t) {
    const auto f = sampler.sample(rng);
    lag_x1.add(f[0], f[1]);
    lag_x3.add(f[0], f[3]);
    lag_diag.add(f[0], f[2 * m + 2]);
  }
  EXPECT_NEAR(lag_x1.correlation(), rho(pitch), 0.02);
  EXPECT_NEAR(lag_x3.correlation(), rho(3 * pitch), 0.02);
  EXPECT_NEAR(lag_diag.correlation(), rho(std::hypot(2 * pitch, 2 * pitch)), 0.02);
}

TEST(GridFieldSampler, GaussianKernelCorrelation) {
  const GaussianCorrelation rho(400.0);
  GridFieldSampler sampler(4, 4, 150.0, 150.0, rho, 1.5);
  math::Rng rng(3);
  math::RunningCovariance lag;
  math::RunningStats var;
  for (int t = 0; t < 30000; ++t) {
    const auto f = sampler.sample(rng);
    lag.add(f[0], f[2]);
    var.add(f[5]);
  }
  EXPECT_NEAR(lag.correlation(), rho(300.0), 0.02);
  EXPECT_NEAR(var.variance(), 2.25, 0.1);
}

TEST(GridFieldSampler, AnisotropicPitch) {
  const ExponentialCorrelation rho(300.0);
  GridFieldSampler sampler(4, 4, 100.0, 200.0, rho, 1.0);
  math::Rng rng(4);
  math::RunningCovariance row_neighbor, col_neighbor;
  for (int t = 0; t < 30000; ++t) {
    const auto f = sampler.sample(rng);
    row_neighbor.add(f[0], f[1]);      // dx = 100
    col_neighbor.add(f[0], f[4]);      // dy = 200
  }
  EXPECT_NEAR(row_neighbor.correlation(), rho(100.0), 0.02);
  EXPECT_NEAR(col_neighbor.correlation(), rho(200.0), 0.02);
}

TEST(GridFieldSampler, DefaultEmbeddingIsMinimalAndNeverLargerThanTheRangePadding) {
  // next_pow2(n + min(range, n - 1)) per axis: every offset the kernel
  // reaches, once; the range padding capped at 4x the grid bounds it above.
  const double range = ExponentialCorrelation(1.0e5).range_nm();  // 921 sites at 1.5 um
  EXPECT_EQ(GridFieldSampler::padded_dim(48, 1500.0, 1.0, range), 128u);
  EXPECT_EQ(GridFieldSampler::max_padded_dim(48, 1500.0, 1.0, range), 256u);
  EXPECT_EQ(GridFieldSampler::padded_dim(128, 1500.0, 1.0, range), 256u);
  EXPECT_EQ(GridFieldSampler::max_padded_dim(128, 1500.0, 1.0, range), 1024u);
  // A kernel shorter than the grid: both rules pad by its range.
  EXPECT_EQ(GridFieldSampler::padded_dim(100, 1000.0, 1.0, 10000.0), 128u);
  EXPECT_EQ(GridFieldSampler::max_padded_dim(100, 1000.0, 1.0, 10000.0), 128u);
  for (std::size_t n = 1; n <= 300; n += 7)
    for (const double r : {0.0, 3.0e3, 1.0e5, 1.4e6})
      EXPECT_LE(GridFieldSampler::padded_dim(n, 1500.0, 1.0, r),
                GridFieldSampler::max_padded_dim(n, 1500.0, 1.0, r))
          << n << " sites, range " << r;
}

TEST(GridFieldSampler, EigenvalueClampIsSmallForValidKernels) {
  const ExponentialCorrelation rho(500.0);
  const GridFieldSampler sampler(16, 16, 100.0, 100.0, rho, 1.0);
  EXPECT_LT(sampler.clamped_eigenvalue_fraction(), 1e-6);
}

TEST(GridFieldSampler, SuccessiveSamplesIndependent) {
  const ExponentialCorrelation rho(300.0);
  GridFieldSampler sampler(4, 4, 100.0, 100.0, rho, 1.0);
  math::Rng rng(5);
  math::RunningCovariance c;
  std::vector<double> prev = sampler.sample(rng);
  for (int t = 0; t < 20000; ++t) {
    const auto cur = sampler.sample(rng);
    c.add(prev[0], cur[0]);
    prev = cur;
  }
  EXPECT_NEAR(c.correlation(), 0.0, 0.03);
}

TEST(GridFieldSampler, SampleIntoMatchesSampleStream) {
  // sample_into is the allocation-free spelling of sample(): same RNG
  // consumption, bit-identical fields (including the cached second field of
  // each complex FFT draw).
  const ExponentialCorrelation rho(300.0);
  GridFieldSampler a(6, 5, 100.0, 100.0, rho, 1.7);
  GridFieldSampler b(6, 5, 100.0, 100.0, rho, 1.7);
  math::Rng ra(11), rb(11);
  FieldWorkspace ws;
  std::vector<double> out;
  for (int t = 0; t < 9; ++t) {  // odd count exercises the cached-field path
    const std::vector<double> ref = a.sample(ra);
    b.sample_into(rb, ws, out);
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(out[i], ref[i]) << "t=" << t;
  }
  EXPECT_EQ(ra(), rb());  // streams stayed in lockstep
}

// Bit-exact draws, re-pinned when the one-time eigenvalue transform moved
// from the std::complex fft2d (rows, then columns) onto the sampler's own
// FftPlan column and row plans (columns, then rows): the eigenvalues move by
// rounding, so every draw moves by rounding too (a pinned site by at most
// 1.6e-11 of the field's sigma). The per-draw arithmetic is unchanged.
// Three draws per sampler (an FFT draw, its cached second field, the next
// FFT draw), each pinned at five sites and by its sum and sum of squares in
// index order, then the next engine word.
struct GoldenDraw {
  double sum, sq;
  double at[5];
};

void expect_golden_draws(GridFieldSampler sampler, std::uint64_t seed,
                         const std::size_t (&sites)[5], const GoldenDraw (&want)[3],
                         std::uint64_t next_word) {
  math::Rng rng(seed);
  FieldWorkspace ws;
  std::vector<double> out;
  for (int t = 0; t < 3; ++t) {
    sampler.sample_into(rng, ws, out);
    double sum = 0.0, sq = 0.0;
    for (const double v : out) {
      sum += v;
      sq += v * v;
    }
    EXPECT_EQ(sum, want[t].sum) << "draw " << t;
    EXPECT_EQ(sq, want[t].sq) << "draw " << t;
    for (std::size_t k = 0; k < 5; ++k)
      EXPECT_EQ(out[sites[k]], want[t].at[k]) << "draw " << t << " site " << sites[k];
  }
  EXPECT_EQ(rng(), next_word);
}

TEST(GridFieldSampler, DrawMatchesParentGolden) {
  // The bench grid: 48x48 sites at 1.5 um, exponential lc = 0.1 mm. Re-pinned
  // when the default embedding became the minimal one, next_pow2(n +
  // min(range, n - 1)): the kernel's 921-site range made it 256x256 before
  // and makes it 128x128 now, so every draw changes. Its exact chip biases
  // are gated in mc/test_mc_embedding.cpp.
  const ExponentialCorrelation exp_rho(1.0e5);
  const GridFieldSampler bench(48, 48, 1500.0, 1500.0, exp_rho, 1.25);
  ASSERT_EQ(bench.padded_rows(), 128u);
  ASSERT_EQ(bench.padded_cols(), 128u);
  expect_golden_draws(
      bench, 4242, {0, 1, 47, 1176, 2303},
      {{0x1.58d58fdc6fbb1p+11,
        0x1.03192fad0563ap+12,
        {0x1.c5b0a14fbc951p+0, 0x1.9f81385bd3bc4p+0, 0x1.e291c4fa17c1ap+0,
         0x1.902efa9dfe764p-1, 0x1.f3dba39953a6cp-2}},
       {-0x1.07db733af3501p+10,
        0x1.20d7ba8fdc33cp+11,
        {0x1.fe5be88db4a0ep-1, 0x1.6c2532c6b8973p-1, -0x1.0356ba507ac1ap-1,
         -0x1.0503897941426p+0, -0x1.0b0748a6014ccp+1}},
       {-0x1.f06c9e25331c9p+9,
        0x1.3eee239757f18p+10,
        {-0x1.bad8e9f4d0a8bp-1, -0x1.84ade9be17a92p-1, -0x1.45e2b4a54983ap-1,
         0x1.c548531d9afcep-3, -0x1.c6baedd3d2bdcp-3}}},
      17534486013206621025ull);

  // Non-square and anisotropic: a 12x30 grid whose embedding is 32x64, so
  // sqrt(prow * pcol) is not a power of two. The kernel reaches fewer sites
  // than the grid spans along the rows and about as many along the columns,
  // so both sizing rules give this embedding and these draws did not change.
  const GaussianCorrelation gauss_rho(400.0);
  CorrelationAnisotropy aniso;
  aniso.scale_x = 2.0;
  aniso.scale_y = 0.5;
  const GridFieldSampler skewed(12, 30, 100.0, 150.0, gauss_rho, 1.7, aniso);
  ASSERT_EQ(skewed.padded_rows(), 32u);
  ASSERT_EQ(skewed.padded_cols(), 64u);
  expect_golden_draws(
      skewed, 77, {0, 1, 29, 185, 359},
      {{-0x1.51071d4776412p+7,
        0x1.d65d458165797p+9,
        {-0x1.7c446e4af768ap+0, -0x1.98f472d23843ap+0, -0x1.81572f1d99dc5p+1,
         0x1.1125b1c3a6a98p-4, 0x1.47cc5888e4e66p+0}},
       {0x1.08331d05cca67p+6,
        0x1.f699aa76212fep+9,
        {-0x1.8ebffaf483575p-2, -0x1.f31022c6ca97p-2, 0x1.bcb23e859eb1bp+0,
         0x1.b2e2f2b303471p+1, 0x1.fdbf801a9d0ddp-1}},
       {-0x1.c2ac0179220ap+5,
        0x1.23334c72a9426p+10,
        {-0x1.2fe59266d9f94p+0, -0x1.5ca7147e47fd6p+0, -0x1.613a2610f7c0cp+0,
         -0x1.732f651a1d3d2p-1, -0x1.ae2d16ce2109ep-1}}},
      9712174601488965316ull);
}

TEST(GridFieldSampler, WorkspaceAndFootprintBytesMatchTheBuffers) {
  // The MC arena formulas (core::CostModel::mc_embedding_bytes and
  // mc_worker_bytes) charge what the fused draw holds: the column-major
  // scratch over the padded grid and the row-pass buffer over the kept rows
  // per workspace, the spare field per sampler copy, and once per embedding
  // the eigenvalue roots, the realized covariance and two 1-D plans.
  // Re-pinned when copies began sharing the embedding (footprint_bytes is now
  // the copy's own spare field) and the bench grid's default embedding went
  // from 256x256 to 128x128.
  const ExponentialCorrelation rho(1.0e5);
  GridFieldSampler sampler(48, 48, 1500.0, 1500.0, rho, 1.25);
  math::Rng rng(1);
  FieldWorkspace ws;
  std::vector<double> out;
  sampler.sample_into(rng, ws, out);
  const std::size_t c16 = sizeof(std::complex<double>);
  EXPECT_EQ(ws.scratch.size() * c16 + ws.freq.size() * c16, sampler.workspace_bytes());
  EXPECT_EQ(sampler.workspace_bytes(), (128u * 128u + 48u * 128u) * c16);
  EXPECT_EQ(sampler.footprint_bytes(), 48u * 48u * 8u);
  const std::size_t plan = 128 * sizeof(std::uint32_t) + 127 * c16;
  EXPECT_EQ(sampler.embedding_bytes(), 128u * 128u * 8u + 48u * 48u * 8u + 2 * plan);
  // A copy shares the embedding: its own bytes are its spare field only.
  const GridFieldSampler copy = sampler;
  EXPECT_EQ(&copy.realized_covariance(), &sampler.realized_covariance());
  EXPECT_EQ(copy.footprint_bytes(), 48u * 48u * 8u);
}

// The realized covariance by brute force: the O(N^2) 2-D DFT of the wrapped
// kernel, negative eigenvalues clamped to zero, and the inverse DFT at the
// grid's offsets.
std::vector<double> brute_force_realized(std::size_t rows, std::size_t cols, double dx,
                                         double dy, const SpatialCorrelation& rho, double sigma,
                                         std::size_t prow, std::size_t pcol) {
  const double two_pi = 2.0 * M_PI;
  const auto phase = [&](std::size_t a, std::size_t b, std::size_t r, std::size_t c) {
    return two_pi * (static_cast<double>((a * r) % prow) / static_cast<double>(prow) +
                     static_cast<double>((b * c) % pcol) / static_cast<double>(pcol));
  };
  std::vector<double> lambda(prow * pcol);
  for (std::size_t a = 0; a < prow; ++a)
    for (std::size_t b = 0; b < pcol; ++b) {
      std::complex<double> sum = 0.0;
      for (std::size_t r = 0; r < prow; ++r)
        for (std::size_t c = 0; c < pcol; ++c) {
          const double d = std::hypot(static_cast<double>(std::min(c, pcol - c)) * dx,
                                      static_cast<double>(std::min(r, prow - r)) * dy);
          sum += sigma * sigma * rho(d) * std::polar(1.0, -phase(a, b, r, c));
        }
      lambda[a * pcol + b] = std::max(sum.real(), 0.0);
    }
  std::vector<double> out(rows * cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) {
      std::complex<double> sum = 0.0;
      for (std::size_t a = 0; a < prow; ++a)
        for (std::size_t b = 0; b < pcol; ++b)
          sum += lambda[a * pcol + b] * std::polar(1.0, phase(a, b, r, c));
      out[r * cols + c] = sum.real() / static_cast<double>(prow * pcol);
    }
  return out;
}

TEST(GridFieldSampler, RealizedCovarianceIsTheInverseDftOfTheClampedEigenvalues) {
  // Embeddings that clamp (a long-range exponential on a small torus, and a
  // non-square anisotropic Gaussian) and one that does not.
  struct Case {
    std::size_t rows, cols, prow, pcol;
    double dx, dy, lc;
    bool gaussian;
    CorrelationAnisotropy axes;
  };
  for (const Case& k : {Case{6, 5, 8, 8, 100.0, 100.0, 1000.0, false, {}},
                        Case{5, 7, 8, 16, 120.0, 90.0, 400.0, true, {2.0, 0.5}},
                        Case{4, 4, 16, 16, 100.0, 100.0, 100.0, false, {}}}) {
    const ExponentialCorrelation exp_rho(k.lc);
    const GaussianCorrelation gauss_rho(k.lc);
    const SpatialCorrelation& rho =
        k.gaussian ? static_cast<const SpatialCorrelation&>(gauss_rho) : exp_rho;
    const double sigma = 1.3;
    const GridFieldSampler sampler(k.rows, k.cols, k.dx, k.dy, rho, sigma, k.axes, k.prow, k.pcol);
    const std::vector<double> want =
        brute_force_realized(k.rows, k.cols, k.dx / k.axes.scale_x, k.dy / k.axes.scale_y, rho,
                             sigma, k.prow, k.pcol);
    const std::vector<double>& got = sampler.realized_covariance();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_NEAR(got[i], want[i], 1e-12 * sigma * sigma) << k.prow << "x" << k.pcol << " @" << i;
  }
}

TEST(GridFieldSampler, DrawsHaveTheRealizedCovarianceNotTheKernel) {
  // A Gaussian kernel on an 8x8 torus: clamping inflates the marginal
  // variance by about 3 %, several sampling errors at 100k draws. Per grid
  // offset the empirical covariance, averaged over the site pairs at that
  // offset, has a sampling error of at most sigma^2 sqrt(2 / N) (the
  // variance of x y is sigma^4 (1 + rho^2) for a Gaussian pair).
  const GaussianCorrelation rho(400.0);
  const std::size_t k = 4, m = 4;
  GridFieldSampler sampler(k, m, 150.0, 150.0, rho, 1.0, {}, 8, 8);
  const std::vector<double>& realized = sampler.realized_covariance();
  constexpr int kDraws = 100000;
  const double tol = 4.0 * std::sqrt(2.0 / kDraws);
  ASSERT_GT(realized[0] - 1.0, tol) << "the case must tell the realized from the target";

  std::vector<double> sum(k * m, 0.0), pairs(k * m, 0.0);
  math::Rng rng(17);
  FieldWorkspace ws;
  std::vector<double> f;
  for (int t = 0; t < kDraws; ++t) {
    sampler.sample_into(rng, ws, f);
    for (std::size_t a = 0; a < k * m; ++a)
      for (std::size_t b = 0; b < k * m; ++b) {
        const std::size_t dr = a / m > b / m ? a / m - b / m : b / m - a / m;
        const std::size_t dc = a % m > b % m ? a % m - b % m : b % m - a % m;
        sum[dr * m + dc] += f[a] * f[b];
        pairs[dr * m + dc] += 1.0;
      }
  }
  for (std::size_t off = 0; off < k * m; ++off)
    EXPECT_NEAR(sum[off] / pairs[off], realized[off], tol) << "offset " << off;
}

TEST(GridFieldSampler, ContractChecks) {
  const ExponentialCorrelation rho(100.0);
  EXPECT_THROW(GridFieldSampler(0, 4, 1.0, 1.0, rho, 1.0), ContractViolation);
  EXPECT_THROW(GridFieldSampler(4, 4, 0.0, 1.0, rho, 1.0), ContractViolation);
  EXPECT_THROW(GridFieldSampler(4, 4, 1.0, 1.0, rho, -1.0), ContractViolation);
  EXPECT_THROW(GridFieldSampler(8, 4, 1.0, 1.0, rho, 1.0, {}, 4, 8), ContractViolation);
  EXPECT_THROW(GridFieldSampler(4, 4, 1.0, 1.0, rho, 1.0, {}, 8, 12), ContractViolation);
}

}  // namespace
}  // namespace rgleak::process
