#include "math/root.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace rgleak::math {
namespace {

// The documented accuracy floor: 4 eps |x| on top of the tolerance.
constexpr double kFloor = 4.0 * std::numeric_limits<double>::epsilon();

TEST(BrentRoot, SmoothRootsToMachinePrecision) {
  EXPECT_NEAR(brent_root([](double x) { return x * x - 2.0; }, 0.0, 2.0, 0.0), std::sqrt(2.0),
              kFloor * std::sqrt(2.0));
  EXPECT_NEAR(brent_root([](double x) { return std::log(x) - 1.0; }, 1.0, 10.0, 0.0), M_E,
              kFloor * M_E);
  // Flat then steep: x^9 has a ninefold root at 0.
  EXPECT_NEAR(brent_root([](double x) { return std::pow(x, 9); }, -1.0, 3.0, 1e-12), 0.0, 1e-12);
}

TEST(BrentRoot, ConvergesInFewEvaluationsOnSmoothFunctions) {
  int calls = 0;
  const double x = brent_root(
      [&](double v) {
        ++calls;
        return std::exp(v) - 5.0;
      },
      -40.0, 10.0, 1e-14);
  EXPECT_NEAR(x, std::log(5.0), 1e-14);
  EXPECT_LE(calls, 20);
}

TEST(BrentRoot, ReturnsAnEndpointWhenTheRootIsOutsideTheBracket) {
  int calls = 0;
  const auto counted = [&](double shift) {
    return [&calls, shift](double v) {
      ++calls;
      return v - shift;
    };
  };
  // f(a) >= 0: a, after the one evaluation.
  EXPECT_EQ(brent_root(counted(-1.0), 0.0, 1.0, 1e-9), 0.0);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(brent_root(counted(0.0), 0.0, 1.0, 1e-9), 0.0);
  // f(b) <= 0: b, after evaluating both ends.
  calls = 0;
  EXPECT_EQ(brent_root(counted(2.0), 0.0, 1.0, 1e-9), 1.0);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(brent_root(counted(1.0), 0.0, 1.0, 1e-9), 1.0);
}

TEST(BrentRoot, ConvergesOntoAStepToTheRequestedTolerance) {
  // f never crosses zero, it jumps over it: the answer is the step, within
  // the tolerance asked for, and a looser tolerance stops sooner.
  const double step = 1.0 / 3.0;
  int calls = 0;
  const auto f = [&](double v) {
    ++calls;
    return v < step ? -1.0 : 2.0;
  };
  int loose_calls = 0;
  for (const double tol : {1e-3, 1e-6, 1e-9, 1e-12, 0.0}) {
    calls = 0;
    EXPECT_NEAR(brent_root(f, 0.0, 1.0, tol), step, tol + kFloor * step) << "tol " << tol;
    if (tol == 1e-3) loose_calls = calls;
  }
  EXPECT_LT(loose_calls, calls);
  // A step at 0 has no relative floor to stop at: tol = 0 must still end.
  EXPECT_NEAR(brent_root([](double v) { return v < 0.0 ? -1.0 : 2.0; }, -1.0, 1.0, 0.0), 0.0,
              1e-300);
}

}  // namespace
}  // namespace rgleak::math
