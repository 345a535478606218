// MemoryBudget accounting, reservation RAII, size parsing, and the
// process-wide allocation counters (util_tests links rgleak_alloc_count).

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "util/alloc_count.h"
#include "util/error.h"
#include "util/memory.h"

namespace rgleak::util {
namespace {

TEST(MemoryBudget, UnlimitedByDefaultAndPureBookkeeping) {
  MemoryBudget b;
  EXPECT_EQ(b.limit(), 0u);
  EXPECT_EQ(b.reserved(), 0u);
  b.reserve(1ull << 40, "test.huge");  // no limit: never throws
  EXPECT_EQ(b.reserved(), 1ull << 40);
  EXPECT_EQ(b.peak(), 1ull << 40);
  b.release(1ull << 40);
  EXPECT_EQ(b.reserved(), 0u);
  EXPECT_EQ(b.peak(), 1ull << 40) << "peak is a high-water mark";
}

TEST(MemoryBudget, LimitEnforcedWithTypedError) {
  MemoryBudget b;
  b.set_limit(1000);
  b.reserve(600, "test.a");
  EXPECT_EQ(b.headroom(), 400u);
  try {
    b.reserve(500, "test.b");
    FAIL() << "expected ResourceError";
  } catch (const ResourceError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kResource);
    const std::string msg = e.what();
    EXPECT_NE(msg.find("test.b"), std::string::npos) << msg;
  }
  EXPECT_EQ(b.reserved(), 600u) << "failed reserve must not charge";
  b.reserve(400, "test.c");  // exactly fills the budget
  EXPECT_EQ(b.headroom(), 0u);
  b.release(1000);
}

TEST(MemoryBudget, TryReserveReturnsFalseInsteadOfThrowing) {
  MemoryBudget b;
  b.set_limit(100);
  EXPECT_TRUE(b.try_reserve(80, "test"));
  EXPECT_FALSE(b.try_reserve(21, "test"));
  EXPECT_EQ(b.reserved(), 80u);
  b.release(80);
}

TEST(MemoryBudget, OverReleaseClampsToZero) {
  MemoryBudget b;
  b.reserve(10, "test");
  b.release(1000);  // caller bug, but the gauge must not wrap
  EXPECT_EQ(b.reserved(), 0u);
}

TEST(MemoryBudget, ResetPeakRebasesToCurrentReserved) {
  MemoryBudget b;
  b.reserve(500, "test");
  b.release(400);
  EXPECT_EQ(b.peak(), 500u);
  b.reset_peak();
  EXPECT_EQ(b.peak(), 100u);
  b.release(100);
}

TEST(MemoryBudget, ProcessSingletonIsShared) {
  MemoryBudget& a = MemoryBudget::process();
  MemoryBudget& b = MemoryBudget::process();
  EXPECT_EQ(&a, &b);
}

TEST(MemoryBudget, ConcurrentReserveReleaseBalances) {
  MemoryBudget b;
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&b] {
      for (int i = 0; i < kIters; ++i) {
        b.reserve(64, "test.concurrent");
        b.release(64);
      }
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(b.reserved(), 0u);
  EXPECT_GE(b.peak(), 64u);
  EXPECT_LE(b.peak(), 64u * kThreads);
}

TEST(MemoryBudget, ConcurrentTryReserveNeverOvershootsLimit) {
  MemoryBudget b;
  b.set_limit(256);  // room for exactly 4 concurrent 64-byte charges
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&b] {
      for (int i = 0; i < 500; ++i) {
        if (b.try_reserve(64, "test.race")) b.release(64);
      }
    });
  for (auto& t : pool) t.join();
  EXPECT_EQ(b.reserved(), 0u);
  EXPECT_LE(b.peak(), 256u) << "CAS admission must never overshoot the limit";
}

TEST(MemoryReservation, RaiiReleasesOnScopeExit) {
  MemoryBudget b;
  {
    MemoryReservation r(123, "test.raii", &b);
    EXPECT_EQ(b.reserved(), 123u);
    EXPECT_EQ(r.bytes(), 123u);
  }
  EXPECT_EQ(b.reserved(), 0u);
}

TEST(MemoryReservation, CopyReReservesAndMoveTransfers) {
  MemoryBudget b;
  MemoryReservation r(100, "test.copy", &b);
  {
    MemoryReservation clone(r);  // per-worker clones each carry a charge
    EXPECT_EQ(b.reserved(), 200u);
  }
  EXPECT_EQ(b.reserved(), 100u);
  MemoryReservation moved(std::move(r));
  EXPECT_EQ(b.reserved(), 100u) << "move must not double-charge";
  moved.release();
  moved.release();  // idempotent
  EXPECT_EQ(b.reserved(), 0u);
}

TEST(MemoryReservation, CopyThatDoesNotFitThrowsAndLeavesTargetIntact) {
  MemoryBudget b;
  b.set_limit(150);
  MemoryReservation r(100, "test.nofit", &b);
  EXPECT_THROW(MemoryReservation{r}, ResourceError);
  EXPECT_EQ(b.reserved(), 100u);
}

TEST(ParseMemorySize, AcceptsBytesAndSuffixes) {
  EXPECT_EQ(parse_memory_size("1048576"), 1048576u);
  EXPECT_EQ(parse_memory_size("512k"), 512u * 1024);
  EXPECT_EQ(parse_memory_size("512K"), 512u * 1024);
  EXPECT_EQ(parse_memory_size("3m"), 3u * 1024 * 1024);
  EXPECT_EQ(parse_memory_size("2g"), 2ull * 1024 * 1024 * 1024);
  EXPECT_EQ(parse_memory_size("16mb"), 16u * 1024 * 1024);
  EXPECT_EQ(parse_memory_size("0"), 0u);
}

TEST(ParseMemorySize, RejectsGarbage) {
  EXPECT_THROW(parse_memory_size(""), ConfigError);
  EXPECT_THROW(parse_memory_size("abc"), ConfigError);
  EXPECT_THROW(parse_memory_size("-5m"), ConfigError);
  EXPECT_THROW(parse_memory_size("12q"), ConfigError);
  EXPECT_THROW(parse_memory_size("1m1"), ConfigError);
  EXPECT_THROW(parse_memory_size("999999999999g"), ConfigError);
}

TEST(DetectMemoryLimit, ReturnsWithoutCrashing) {
  // The value depends on the host (cgroup limits, RLIMIT_AS); only the
  // contract "0 = unlimited, otherwise a positive ceiling" is portable.
  const std::uint64_t limit = detect_memory_limit();
  if (limit != 0) {
    EXPECT_GT(limit, 1u << 20) << "a sub-MiB ceiling is surely misdetected";
  }
}

TEST(AllocCount, CountersAreMonotonicAndSeeHeapTraffic) {
  const std::uint64_t count0 = allocation_count();
  const std::uint64_t bytes0 = allocated_bytes();
  {
    std::vector<double> v(4096);
    EXPECT_GT(v.size(), 0u);
  }
  EXPECT_GT(allocation_count(), count0);
  EXPECT_GE(allocated_bytes(), bytes0 + 4096 * sizeof(double));
}

}  // namespace
}  // namespace rgleak::util
