#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace qbs {
namespace {

using Clock = std::chrono::steady_clock;

TEST(ParallelForTest, CoversAllIndicesOnce) {
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(hits.size(), 8,
              [&](size_t i, size_t) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadInline) {
  std::vector<int> order;
  ParallelFor(5, 1, [&](size_t i, size_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, WorkerIndexInRange) {
  std::atomic<bool> ok{true};
  ParallelFor(100, 3, [&](size_t, size_t worker) {
    if (worker >= 3) ok = false;
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  ParallelFor(0, 4, [](size_t, size_t) { FAIL(); });
}

// Skewed iteration costs: the heavy outliers must not keep the light
// iterations from being shared out, and every index must run exactly once.
TEST(ParallelForGrainTest, SkewedIterationCostsCoverAllIndices) {
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  ParallelForOptions options;
  options.num_threads = 6;
  options.grain = 4;  // small grain so the skew rebalances across chunks
  ParallelFor(kCount, options, [&](size_t i, size_t worker) {
    ASSERT_LT(worker, 6u);
    if (i % 97 == 0) {
      // Heavy outlier: ~100x the cost of a light iteration.
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForGrainTest, GrainLargerThanCount) {
  std::vector<std::atomic<int>> hits(10);
  ParallelForOptions options;
  options.num_threads = 4;
  options.grain = 100;
  ParallelFor(hits.size(), options,
              [&](size_t i, size_t) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForGrainTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int> total{0};
  ParallelFor(20, 3, [&](size_t, size_t) {
    total.fetch_add(1);
    ParallelFor(16, 2, [&](size_t, size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 20 * 17);
}

TEST(ParallelForGrainTest, WorkerIndicesAreExclusive) {
  // Two iterations sharing a worker index must never run concurrently:
  // per-worker scratch (BFS depth arrays, batch searchers) relies on it.
  constexpr size_t kWorkers = 4;
  std::atomic<int> in_flight[kWorkers] = {};
  std::atomic<bool> ok{true};
  ParallelForOptions options;
  options.num_threads = kWorkers;
  options.grain = 1;
  ParallelFor(200, options, [&](size_t, size_t worker) {
    if (in_flight[worker].fetch_add(1) != 0) ok = false;
    std::this_thread::yield();
    in_flight[worker].fetch_sub(1);
  });
  EXPECT_TRUE(ok.load());
}

TEST(ParallelForGrainTest, ConcurrentCallersShareThePool) {
  std::atomic<int> total{0};
  std::vector<std::thread> callers;
  for (int t = 0; t < 3; ++t) {
    callers.emplace_back([&total] {
      ParallelFor(100, 3, [&](size_t, size_t) { total.fetch_add(1); });
    });
  }
  for (auto& t : callers) t.join();
  EXPECT_EQ(total.load(), 300);
}

// Many short calls in a row: each call's job must be fully joined before
// the next one starts (no iteration of round r may run after it returns).
TEST(ParallelForStressTest, ManyBackToBackCalls) {
  std::atomic<int> count{0};
  for (int round = 0; round < 200; ++round) {
    ParallelFor(8, 2, [&](size_t, size_t) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), (round + 1) * 8);
  }
}

// The join wakes on completion. Iteration 1 runs on a helper and blocks
// until a third thread releases it after a random delay; the caller, done
// with iteration 0, is parked in the join by then. The time from the
// release to ParallelFor's return is one wake-up, not the remainder of a
// polling interval.
TEST(ParallelForJoinTest, ReturnsPromptlyWhenAHelperFinishesLast) {
  constexpr size_t kSamples = 40;
  Rng rng(15);
  std::vector<int64_t> lags_us;
  ParallelForOptions options;
  options.num_threads = 2;
  options.grain = 1;
  for (int call = 0; call < 400 && lags_us.size() < kSamples; ++call) {
    std::atomic<bool> started{false};
    std::atomic<bool> latch{false};
    std::atomic<size_t> worker_of_1{0};
    Clock::time_point released;
    const auto delay = std::chrono::microseconds(rng.UniformInt(1000));
    std::thread releaser([&] {
      while (!started.load()) std::this_thread::yield();
      std::this_thread::sleep_for(delay);
      released = Clock::now();
      latch.store(true);
    });
    ParallelFor(2, options, [&](size_t i, size_t worker) {
      if (i == 0) {
        // Holds this thread until iteration 1 runs elsewhere.
        while (!started.load()) std::this_thread::yield();
        return;
      }
      worker_of_1.store(worker);
      started.store(true);
      while (!latch.load()) std::this_thread::yield();
    });
    const Clock::time_point returned = Clock::now();
    releaser.join();
    if (worker_of_1.load() == 0) continue;  // iteration 1 ran on the caller
    lags_us.push_back(std::chrono::duration_cast<std::chrono::microseconds>(
                          returned - released)
                          .count());
  }
  ASSERT_GE(lags_us.size(), kSamples);
  std::nth_element(lags_us.begin(), lags_us.begin() + lags_us.size() / 2,
                   lags_us.end());
  EXPECT_LT(lags_us[lags_us.size() / 2], 250)
      << "median join lag after the last helper finished, in us";
}

// A throw on any participant is rethrown on the caller after every helper
// has stopped; the chunks not yet handed out are skipped, no index runs
// twice, and the pool serves the next call as usual.
TEST(ParallelForExceptionTest, RethrowsOnCallerAndRunsNoIndexTwice) {
  constexpr size_t kCount = 2000;
  ParallelForOptions options;
  options.num_threads = 4;
  options.grain = 1;
  for (const size_t throw_at : {size_t{0}, size_t{1}, size_t{777},
                                kCount - 1}) {
    SCOPED_TRACE(throw_at);
    std::vector<std::atomic<int>> hits(kCount);
    try {
      ParallelFor(kCount, options, [&](size_t i, size_t) {
        hits[i].fetch_add(1);
        if (i == throw_at) throw std::runtime_error("iteration failed");
      });
      ADD_FAILURE() << "ParallelFor returned normally";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "iteration failed");
    }
    for (size_t i = 0; i < kCount; ++i) {
      ASSERT_LE(hits[i].load(), 1) << "index " << i;
    }
    EXPECT_EQ(hits[throw_at].load(), 1);

    std::vector<std::atomic<int>> again(kCount);
    ParallelFor(kCount, options,
                [&](size_t i, size_t) { again[i].fetch_add(1); });
    for (auto& h : again) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ParallelForExceptionTest, EveryParticipantThrowingRethrowsOne) {
  std::atomic<int> runs{0};
  EXPECT_THROW(ParallelFor(64, 4,
                           [&](size_t, size_t) {
                             runs.fetch_add(1);
                             throw std::logic_error("every iteration");
                           }),
               std::logic_error);
  EXPECT_GE(runs.load(), 1);
  EXPECT_LE(runs.load(), 4);  // one throw per participant at most
}

}  // namespace
}  // namespace qbs
