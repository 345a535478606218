#include "process/field_sampler.h"

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>

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
  // The bench grid: 48x48 sites at 1.5 um, exponential lc = 0.1 mm, which
  // pads to a 256x256 embedding.
  const ExponentialCorrelation exp_rho(1.0e5);
  const GridFieldSampler bench(48, 48, 1500.0, 1500.0, exp_rho, 1.25);
  ASSERT_EQ(bench.padded_rows(), 256u);
  ASSERT_EQ(bench.padded_cols(), 256u);
  expect_golden_draws(
      bench, 4242, {0, 1, 47, 1176, 2303},
      {{-0x1.413a7c4b1211p+5,
        0x1.03bbbe7269152p+10,
        {0x1.7b616bc1fe115p-1, 0x1.8fe3eaba79a22p-1, 0x1.9e807740438a1p-1,
         -0x1.94141b56439adp-2, 0x1.629ca44c2c94dp-2}},
       {-0x1.f5fc7a97d11dap+9,
        0x1.fcb8120ed8e9bp+10,
        {0x1.5a30b1922961cp-4, 0x1.6b9d3e8fd4209p-2, -0x1.12c7e7c2d827cp-3,
         -0x1.635955a6b1386p+0, -0x1.4c8880a01edc7p-1}},
       {-0x1.c3b08c49d8621p+11,
        0x1.b3b7fb149cd62p+12,
        {-0x1.1c54ccdd10207p+1, -0x1.1bb4886188066p+1, 0x1.28dd1f03f1471p-1,
         -0x1.1ec4159881a65p+0, -0x1.5c247870b4a59p+1}}},
      8088735770663940279ull);

  // Non-square and anisotropic: a 12x30 grid whose embedding is 32x64, so
  // sqrt(prow * pcol) is not a power of two.
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
  // The MC arena formula (core::CostModel::mc_worker_bytes) charges what the
  // fused draw holds: the column-major scratch over the padded grid, the
  // row-pass buffer over the kept rows, and per sampler the eigenvalue roots,
  // the spare field and two 1-D plans.
  const ExponentialCorrelation rho(1.0e5);
  GridFieldSampler sampler(48, 48, 1500.0, 1500.0, rho, 1.25);
  math::Rng rng(1);
  FieldWorkspace ws;
  std::vector<double> out;
  sampler.sample_into(rng, ws, out);
  const std::size_t c16 = sizeof(std::complex<double>);
  EXPECT_EQ(ws.scratch.size() * c16 + ws.freq.size() * c16, sampler.workspace_bytes());
  EXPECT_EQ(sampler.workspace_bytes(), (256u * 256u + 48u * 256u) * c16);
  const std::size_t plan = 256 * sizeof(std::uint32_t) + 255 * c16;
  EXPECT_EQ(sampler.footprint_bytes(), 256u * 256u * 8u + 48u * 48u * 8u + 2 * plan);
}

TEST(GridFieldSampler, ContractChecks) {
  const ExponentialCorrelation rho(100.0);
  EXPECT_THROW(GridFieldSampler(0, 4, 1.0, 1.0, rho, 1.0), ContractViolation);
  EXPECT_THROW(GridFieldSampler(4, 4, 0.0, 1.0, rho, 1.0), ContractViolation);
  EXPECT_THROW(GridFieldSampler(4, 4, 1.0, 1.0, rho, -1.0), ContractViolation);
}

}  // namespace
}  // namespace rgleak::process
