#include "cells/library.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/require.h"

namespace rgleak::cells {
namespace {

const device::TechnologyParams kTech{};

const StdCellLibrary& lib() {
  static const StdCellLibrary l = build_virtual90_library();
  return l;
}

TEST(Library, HasExactly62Cells) { EXPECT_EQ(lib().size(), 62u); }

TEST(Library, EveryStateLeaksLessAsTheChannelLengthens) {
  // The stack solver over the whole library: every (cell, state) at
  // L = 34..46 nm, at 300 K and 110 C, is positive, finite and strictly
  // decreasing in L (Vt roll-off and W/L both fall as L grows).
  std::size_t points = 0;
  for (const device::TechnologyParams& tech : {kTech, device::at_temperature(kTech, 383.15)})
    for (const Cell& cell : lib().cells())
      for (std::uint32_t s = 0; s < cell.num_states(); ++s) {
        double prev = INFINITY;
        for (int l = 34; l <= 46; ++l, ++points) {
          const double i = cell.leakage_na(s, l, tech);
          ASSERT_TRUE(std::isfinite(i) && i > 0.0) << cell.name() << " state " << s << " L " << l;
          ASSERT_LT(i, prev) << cell.name() << " state " << s << " L " << l;
          prev = i;
        }
      }
  EXPECT_EQ(points, 15340u);
}

TEST(Library, IndexOfAndContains) {
  EXPECT_TRUE(lib().contains("INV_X1"));
  EXPECT_TRUE(lib().contains("SRAM6T"));
  EXPECT_FALSE(lib().contains("NOPE_X1"));
  EXPECT_EQ(lib().cell(lib().index_of("NAND2_X1")).name(), "NAND2_X1");
  EXPECT_THROW(lib().index_of("NOPE_X1"), ContractViolation);
  EXPECT_THROW(lib().cell(62), ContractViolation);
}

TEST(Library, MiniLibraryIsSubsetStyle) {
  const StdCellLibrary mini = build_mini_library();
  EXPECT_GE(mini.size(), 3u);
  EXPECT_TRUE(mini.contains("INV_X1"));
  EXPECT_TRUE(mini.contains("NAND2_X1"));
}

TEST(Library, RejectsDuplicateNames) {
  std::vector<Cell> cells;
  {
    CellBuilder b1("A", 1, Sizing{});
    b1.add_inverter(b1.input(0));
    cells.push_back(std::move(b1).build());
  }
  {
    CellBuilder b2("A", 1, Sizing{});
    b2.add_inverter(b2.input(0));
    cells.push_back(std::move(b2).build());
  }
  EXPECT_THROW(StdCellLibrary(kTech, std::move(cells)), ContractViolation);
}

TEST(Library, DriveStrengthScalesLeakage) {
  const Cell& x1 = lib().cell(lib().index_of("INV_X1"));
  const Cell& x4 = lib().cell(lib().index_of("INV_X4"));
  const double i1 = x1.leakage_na(0, 40.0, kTech);
  const double i4 = x4.leakage_na(0, 40.0, kTech);
  EXPECT_NEAR(i4 / i1, 4.0, 0.1);
}

TEST(Library, StackedGatesLeakLessThanInverter) {
  // NAND4 in its best state (all inputs 0, 4-stack) leaks far less per
  // rail path than an inverter.
  const Cell& inv = lib().cell(lib().index_of("INV_X1"));
  const Cell& nand4 = lib().cell(lib().index_of("NAND4_X1"));
  const double i_inv = inv.leakage_na(0, 40.0, kTech);
  const double i_nand4 = nand4.leakage_na(0, 40.0, kTech);
  // The 4-stack (even with 4x widths) still suppresses leakage.
  EXPECT_LT(i_nand4, 4.0 * i_inv);
}

TEST(Library, XorUsesInternalInverters) {
  const Cell& x = lib().cell(lib().index_of("XOR2_X1"));
  EXPECT_EQ(x.num_inputs(), 2);
  // 2 inverters (4T) + complex gate (8T).
  EXPECT_EQ(x.num_devices(), 12u);
}

TEST(Library, SramHasAccessPath) {
  const Cell& s = lib().cell(lib().index_of("SRAM6T"));
  EXPECT_EQ(s.num_inputs(), 1);
  EXPECT_EQ(s.num_devices(), 5u);  // 2 inverters + 1 access device modeled
  EXPECT_GT(s.leakage_na(0, 40.0, kTech), 0.0);
  EXPECT_GT(s.leakage_na(1, 40.0, kTech), 0.0);
}

TEST(Library, DffLeakageDependsOnClockAndData) {
  const Cell& dff = lib().cell(lib().index_of("DFF_X1"));
  EXPECT_EQ(dff.num_inputs(), 2);
  std::vector<double> leaks;
  for (std::uint32_t s = 0; s < 4; ++s) leaks.push_back(dff.leakage_na(s, 40.0, kTech));
  // All positive and not all identical.
  double lo = 1e300, hi = 0.0;
  for (double v : leaks) {
    EXPECT_GT(v, 0.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GT(hi / lo, 1.001);
}

// Parameterized sweep: every cell, every input state must produce positive,
// finite leakage that decreases with channel length.
class AllCellsTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllCellsTest, AllStatesSolvePositive) {
  const Cell& c = lib().cell(GetParam());
  for (std::uint32_t s = 0; s < c.num_states(); ++s) {
    const double i = c.leakage_na(s, 40.0, kTech);
    ASSERT_TRUE(std::isfinite(i)) << c.name() << " state " << s;
    ASSERT_GT(i, 0.0) << c.name() << " state " << s;
    ASSERT_LT(i, 1e6) << c.name() << " state " << s;  // < 1 mA per cell
  }
}

TEST_P(AllCellsTest, LeakageMonotoneInLength) {
  const Cell& c = lib().cell(GetParam());
  // Check the all-zero state across the +-3 sigma length window.
  double prev = c.leakage_na(0, 32.0, kTech);
  for (double l = 34.0; l <= 48.0; l += 2.0) {
    const double i = c.leakage_na(0, l, kTech);
    ASSERT_LT(i, prev) << c.name() << " at L=" << l;
    prev = i;
  }
}

TEST_P(AllCellsTest, LogLeakageIsNearlyQuadraticInLength) {
  // The substitution contract: ln I(L) must be well-approximated by a
  // quadratic over +-3 sigma (that is what makes the paper's (a,b,c) fit
  // work). Check the worst state-0 fit residual.
  const Cell& c = lib().cell(GetParam());
  std::vector<double> ls, logs;
  for (double l = 32.5; l <= 47.5; l += 1.5) {
    ls.push_back(l - 40.0);
    logs.push_back(std::log(c.leakage_na(0, l, kTech)));
  }
  // Fit quadratic by normal equations on centered data.
  // (Use the simple 3-term design; smallness of residual is what matters.)
  double s0 = 0, s1 = 0, s2 = 0, s3 = 0, s4 = 0, t0 = 0, t1 = 0, t2 = 0;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const double x = ls[i], y = logs[i];
    s0 += 1;
    s1 += x;
    s2 += x * x;
    s3 += x * x * x;
    s4 += x * x * x * x;
    t0 += y;
    t1 += x * y;
    t2 += x * x * y;
  }
  // Solve 3x3 normal equations (Cramer).
  const double det = s0 * (s2 * s4 - s3 * s3) - s1 * (s1 * s4 - s3 * s2) +
                     s2 * (s1 * s3 - s2 * s2);
  ASSERT_NE(det, 0.0);
  const double c0 = (t0 * (s2 * s4 - s3 * s3) - s1 * (t1 * s4 - s3 * t2) +
                     s2 * (t1 * s3 - s2 * t2)) /
                    det;
  const double c1 = (s0 * (t1 * s4 - t2 * s3) - t0 * (s1 * s4 - s3 * s2) +
                     s2 * (s1 * t2 - t1 * s2)) /
                    det;
  const double c2 = (s0 * (s2 * t2 - s3 * t1) - s1 * (s1 * t2 - t1 * s2) +
                     t0 * (s1 * s3 - s2 * s2)) /
                    det;
  double max_resid = 0.0;
  for (std::size_t i = 0; i < ls.size(); ++i) {
    const double fit = c0 + c1 * ls[i] + c2 * ls[i] * ls[i];
    max_resid = std::max(max_resid, std::abs(fit - logs[i]));
  }
  // ln-domain residual below 0.05 -> < ~5% pointwise leakage error.
  EXPECT_LT(max_resid, 0.05) << c.name();
}

INSTANTIATE_TEST_SUITE_P(Virtual90, AllCellsTest,
                         ::testing::Range<std::size_t>(0, 62),
                         [](const ::testing::TestParamInfo<std::size_t>& info) {
                           return lib().cell(info.param).name();
                         });

}  // namespace
}  // namespace rgleak::cells
