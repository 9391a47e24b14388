#include "util/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace mgardp {
namespace {

// Restores the ambient global pool size after each test so thread-count
// overrides cannot leak into the rest of the suite.
class ParallelTest : public ::testing::Test {
 protected:
  ParallelTest() : ambient_threads_(GlobalThreadCount()) {}
  ~ParallelTest() override { SetGlobalThreadCount(ambient_threads_); }

 private:
  int ambient_threads_;
};

TEST_F(ParallelTest, PoolLifecycle) {
  for (int n : {1, 2, 4, 8}) {
    ThreadPool pool(n);
    EXPECT_EQ(pool.num_threads(), n);
    std::atomic<int> ran{0};
    pool.Run(17, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 17);
  }
}

TEST_F(ParallelTest, RunWithZeroChunksIsANoop) {
  ThreadPool pool(4);
  pool.Run(0, [&](std::size_t) { FAIL() << "chunk ran"; });
}

TEST_F(ParallelTest, PoolIsReusableAcrossBatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hit(13, 0);
    pool.Run(hit.size(), [&](std::size_t c) { hit[c] += 1; });
    for (int h : hit) {
      EXPECT_EQ(h, 1);
    }
  }
}

TEST_F(ParallelTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 3, 4, 8}) {
    SetGlobalThreadCount(threads);
    const std::size_t max_chunks =
        kChunksPerThread * static_cast<std::size_t>(threads);
    // Grain edge cases: zero (clamped to 1), grain > n, grain == n, odd
    // splits, empty and single-element ranges, and ranges long enough to
    // hit the chunk cap.
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                          std::size_t{64}, std::size_t{1000}}) {
      for (std::size_t grain : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                std::size_t{64}, std::size_t{5000}}) {
        const std::size_t g = std::max<std::size_t>(grain, 1);
        std::vector<int> hit(n, 0);
        std::mutex mu;
        std::vector<std::size_t> lengths;
        ParallelFor(0, n, grain, [&](std::size_t lo, std::size_t hi) {
          ASSERT_LE(lo, hi);
          for (std::size_t i = lo; i < hi; ++i) {
            hit[i] += 1;
          }
          std::lock_guard<std::mutex> lock(mu);
          lengths.push_back(hi - lo);
        });
        for (std::size_t i = 0; i < n; ++i) {
          EXPECT_EQ(hit[i], 1) << "n=" << n << " grain=" << grain;
        }
        if (n == 0) {
          EXPECT_TRUE(lengths.empty());
          continue;
        }
        EXPECT_LE(lengths.size(), max_chunks)
            << "threads=" << threads << " n=" << n << " grain=" << grain;
        if (n < g) {
          // A range shorter than the grain runs as one short chunk.
          EXPECT_EQ(lengths.size(), 1u);
          continue;
        }
        for (std::size_t len : lengths) {
          EXPECT_GE(len, g) << "threads=" << threads << " n=" << n
                            << " grain=" << grain;
        }
      }
    }
  }
}

TEST_F(ParallelTest, ParallelForSpreadsChunksOverEveryStripe) {
  // With 8 chunks per thread, the first `threads` chunks -- where the
  // library fan-outs put their most expensive tasks -- run on distinct
  // threads.
  SetGlobalThreadCount(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::thread::id>> owners;
  ParallelFor(0, 64, 1, [&](std::size_t lo, std::size_t hi) {
    std::lock_guard<std::mutex> lock(mu);
    owners.emplace_back(lo, std::this_thread::get_id());
    EXPECT_EQ(hi - lo, 2u);
  });
  ASSERT_EQ(owners.size(), 32u);
  std::sort(owners.begin(), owners.end());
  std::set<std::thread::id> leading;
  for (std::size_t c = 0; c < 4; ++c) {
    leading.insert(owners[c].second);
  }
  EXPECT_EQ(leading.size(), 4u);
}

TEST_F(ParallelTest, ParallelForRespectsNonzeroBegin) {
  SetGlobalThreadCount(4);
  std::vector<int> hit(20, 0);
  ParallelFor(5, 17, 2, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      hit[i] += 1;
    }
  });
  for (std::size_t i = 0; i < hit.size(); ++i) {
    EXPECT_EQ(hit[i], (i >= 5 && i < 17) ? 1 : 0) << i;
  }
}

TEST_F(ParallelTest, ReduceSumsAreBitIdenticalAcrossThreadCounts) {
  // Adversarial magnitudes: reassociating this sum changes the result, so
  // equality here proves the chunk/combine order is thread-count-free.
  std::vector<double> values(10000);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int exponent = static_cast<int>(i % 61) - 30;
    const double mantissa = 1.0 + static_cast<double>(i % 7) * 0.125;
    values[i] = std::ldexp((i % 2) ? -mantissa : mantissa, exponent) +
                ((i % 97) == 0 ? 1e9 : 0.0);
  }
  auto sum_with = [&](int threads) {
    SetGlobalThreadCount(threads);
    return ParallelReduce<double>(
        0, values.size(), 256, 0.0,
        [&](std::size_t lo, std::size_t hi) {
          double s = 0.0;
          for (std::size_t i = lo; i < hi; ++i) {
            s += values[i];
          }
          return s;
        },
        [](double a, double b) { return a + b; });
  };
  const double serial = sum_with(1);
  for (int threads : {2, 3, 8}) {
    const double parallel = sum_with(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, ReduceHandlesEmptyAndTinyRanges) {
  SetGlobalThreadCount(4);
  auto count = [](std::size_t lo, std::size_t hi) {
    return static_cast<int>(hi - lo);
  };
  auto add = [](int a, int b) { return a + b; };
  EXPECT_EQ(ParallelReduce<int>(0, 0, 8, 0, count, add), 0);
  EXPECT_EQ(ParallelReduce<int>(3, 3, 8, 0, count, add), 0);
  EXPECT_EQ(ParallelReduce<int>(0, 1, 8, 0, count, add), 1);
  EXPECT_EQ(ParallelReduce<int>(0, 1000, 0, 0, count, add), 1000);
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  for (int threads : {1, 4}) {
    SetGlobalThreadCount(threads);
    EXPECT_THROW(
        ParallelFor(0, 100, 1,
                    [&](std::size_t lo, std::size_t hi) {
                      if (lo < hi) {
                        throw std::runtime_error("boom");
                      }
                    }),
        std::runtime_error);
    // The pool must stay usable after an exception drains.
    std::atomic<int> ran{0};
    ParallelFor(0, 10, 1,
                [&](std::size_t lo, std::size_t hi) {
                  ran.fetch_add(static_cast<int>(hi - lo));
                });
    EXPECT_EQ(ran.load(), 10);
  }
}

TEST_F(ParallelTest, NestedParallelForRunsInlineWithoutDeadlock) {
  SetGlobalThreadCount(4);
  std::atomic<int> total{0};
  ParallelFor(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      EXPECT_TRUE(ThreadPool::InParallelRegion());
      ParallelFor(0, 10, 1, [&](std::size_t nlo, std::size_t nhi) {
        total.fetch_add(static_cast<int>(nhi - nlo));
      });
    }
  });
  EXPECT_EQ(total.load(), 80);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST_F(ParallelTest, GlobalThreadCountOverride) {
  SetGlobalThreadCount(3);
  EXPECT_EQ(GlobalThreadCount(), 3);
  SetGlobalThreadCount(1);
  EXPECT_EQ(GlobalThreadCount(), 1);
}

}  // namespace
}  // namespace mgardp
