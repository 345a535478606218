#include "math/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "math/stats.h"
#include "util/require.h"

namespace rgleak::math {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformRangeRejectsInverted) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform(1.0, 0.0), ContractViolation);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.variance(), 1.0, 0.03);
}

TEST(Rng, NormalSkewAndTails) {
  Rng rng(13);
  double third = 0.0;
  std::size_t beyond3 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    third += z * z * z;
    if (std::abs(z) > 3.0) ++beyond3;
  }
  EXPECT_NEAR(third / n, 0.0, 0.05);
  // P(|Z| > 3) = 0.0027.
  EXPECT_NEAR(static_cast<double>(beyond3) / n, 0.0027, 0.001);
}

TEST(Rng, NormalKurtosisAndWedgeRegion) {
  // The ziggurat's wedge accept/reject shapes the density between the
  // inscribed boxes and the curve; a kurtosis miss or a deficit near |z|~1
  // would expose a bad wedge test.
  Rng rng(37);
  const int n = 500000;
  double fourth = 0.0;
  int near_one = 0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    fourth += z * z * z * z;
    if (std::abs(z) > 0.8 && std::abs(z) < 1.2) ++near_one;
  }
  EXPECT_NEAR(fourth / n, 3.0, 0.1);
  // P(0.8 < |Z| < 1.2) = 2*(Phi(1.2) - Phi(0.8)) = 0.19373.
  EXPECT_NEAR(static_cast<double>(near_one) / n, 0.19373, 0.005);
}

TEST(Rng, NormalDeepTailFrequency) {
  // Samples beyond the ziggurat base edge (x ~ 3.654) come from the explicit
  // Marsaglia tail sampler; check it fires at the Gaussian rate.
  Rng rng(41);
  const int n = 2000000;
  int beyond = 0;
  double max_abs = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    max_abs = std::max(max_abs, std::abs(z));
    if (std::abs(z) > 3.6541528853610088) ++beyond;
  }
  // P(|Z| > 3.65415...) = 2.590e-4; expect ~518 of 2e6, sd ~23.
  EXPECT_NEAR(static_cast<double>(beyond) / n, 2.590e-4, 0.4e-4);
  EXPECT_GT(max_abs, 4.0);  // the tail sampler must actually reach past the edge
  EXPECT_LT(max_abs, 7.0);
}

TEST(Rng, NormalFillMatchesRepeatedNormal) {
  // normal_fill(n) is the stream of n normal() calls, bit for bit, ending in
  // the same engine state; the field sampler's per-column fills rely on it.
  // The fills run in uneven chunks, as the sampler's columns do. Each
  // normal() is classified by the engine steps it consumed: one is the fast
  // path, more is a slow path (the tail sampler when |z| is past the base
  // edge, the wedge otherwise); both must be crossed for the check to mean
  // anything.
  constexpr std::size_t kDraws = std::size_t{1} << 20;
  constexpr double kZigR = 3.6541528853610088;
  Rng single(2024), bulk(2024);
  std::vector<double> filled(kDraws);
  const std::size_t chunks[] = {1, 7, 512, 4096, 33};
  for (std::size_t at = 0, c = 0; at < kDraws; ++c) {
    const std::size_t n = std::min(chunks[c % 5], kDraws - at);
    bulk.normal_fill(filled.data() + at, n);
    at += n;
  }

  std::size_t wedge = 0, tail = 0;
  for (std::size_t i = 0; i < kDraws; ++i) {
    Rng walker = single;
    const double z = single.normal();
    ASSERT_EQ(std::bit_cast<std::uint64_t>(z), std::bit_cast<std::uint64_t>(filled[i]))
        << "draw " << i;
    int steps = 0;
    do {
      walker();
      ASSERT_LT(++steps, 1000) << "draw " << i;
    } while (walker.state().s != single.state().s);
    if (steps > 1) ++(std::abs(z) >= kZigR ? tail : wedge);
  }
  EXPECT_EQ(bulk.state().s, single.state().s);
  EXPECT_EQ(bulk(), single());
  // Seed 2024 takes the wedge 15339 times and the tail 279 times.
  EXPECT_GT(wedge, 1000u);
  EXPECT_GT(tail, 50u);

  // A legacy spare restored through set_state is consumed first by both.
  Rng::State st = single.state();
  st.spare_bits = std::bit_cast<std::uint64_t>(0.625);
  st.has_spare = true;
  single.set_state(st);
  bulk.set_state(st);
  double out[3];
  bulk.normal_fill(out, 3);
  EXPECT_EQ(out[0], 0.625);
  for (const double v : out) EXPECT_EQ(std::bit_cast<std::uint64_t>(v),
                                       std::bit_cast<std::uint64_t>(single.normal()));
  EXPECT_FALSE(bulk.state().has_spare);
  EXPECT_EQ(bulk.state().s, single.state().s);
}

TEST(Rng, NormalScaled) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, NormalRejectsNegativeSigma) {
  Rng rng(1);
  EXPECT_THROW(rng.normal(0.0, -1.0), ContractViolation);
}

TEST(Rng, UniformIndexBoundsAndCoverage) {
  Rng rng(19);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) {
    const auto k = rng.uniform_index(10);
    ASSERT_LT(k, 10u);
    hits[k]++;
  }
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
  EXPECT_THROW(rng.uniform_index(0), ContractViolation);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(23);
  int ones = 0;
  for (int i = 0; i < 100000; ++i) ones += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(ones / 100000.0, 0.3, 0.01);
  EXPECT_THROW(rng.bernoulli(1.5), ContractViolation);
}

TEST(Rng, ForkDecorrelates) {
  Rng rng(29);
  Rng child = rng.fork();
  RunningCovariance cov;
  for (int i = 0; i < 50000; ++i) cov.add(rng.normal(), child.normal());
  EXPECT_NEAR(cov.correlation(), 0.0, 0.02);
}

TEST(Rng, NormalVectorSizeAndIndependence) {
  Rng rng(31);
  const auto v = rng.normal_vector(10000);
  EXPECT_EQ(v.size(), 10000u);
  RunningCovariance lag1;
  for (std::size_t i = 0; i + 1 < v.size(); ++i) lag1.add(v[i], v[i + 1]);
  EXPECT_NEAR(lag1.correlation(), 0.0, 0.03);
}

}  // namespace
}  // namespace rgleak::math
