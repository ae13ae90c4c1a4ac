#include "base/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pathfinder {
namespace {

TEST(ThreadPoolTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, 16, [&](size_t, size_t, size_t) { called = true; });
  ParallelFor(nullptr, 0, 16, [&](size_t, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NumChunksMatchesCeilDiv) {
  EXPECT_EQ(ThreadPool::NumChunks(0, 4), 0u);
  EXPECT_EQ(ThreadPool::NumChunks(1, 4), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(4, 4), 1u);
  EXPECT_EQ(ThreadPool::NumChunks(5, 4), 2u);
  EXPECT_EQ(ThreadPool::NumChunks(17, 4), 5u);
}

// The determinism contract: chunk boundaries are a function of (n,
// grain) only — never of the pool size. Every ordered-merge in the
// kernel relies on this.
TEST(ThreadPoolTest, ChunkBoundariesIndependentOfThreadCount) {
  constexpr size_t kN = 1000, kGrain = 64;
  auto boundaries = [&](ThreadPool* pool) {
    size_t chunks = ThreadPool::NumChunks(kN, kGrain);
    std::vector<std::pair<size_t, size_t>> b(chunks);
    ParallelFor(pool, kN, kGrain,
                [&](size_t c, size_t lo, size_t hi) { b[c] = {lo, hi}; });
    return b;
  };
  auto serial = boundaries(nullptr);
  for (int threads : {1, 2, 3, 7}) {
    ThreadPool pool(threads);
    EXPECT_EQ(boundaries(&pool), serial) << "threads=" << threads;
  }
}

TEST(ThreadPoolTest, EveryIndexCoveredExactlyOnce) {
  ThreadPool pool(7);
  constexpr size_t kN = 100001;
  std::vector<int> hits(kN, 0);
  pool.ParallelFor(kN, 97, [&](size_t, size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) ++hits[i];
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
            static_cast<int>(kN));
  EXPECT_EQ(*std::min_element(hits.begin(), hits.end()), 1);
}

TEST(ThreadPoolTest, ExceptionFromLowestChunkWins) {
  ThreadPool pool(4);
  for (int rep = 0; rep < 20; ++rep) {
    try {
      pool.ParallelFor(64, 1, [&](size_t c, size_t, size_t) {
        if (c == 3) throw std::runtime_error("chunk3");
        if (c == 40) throw std::runtime_error("chunk40");
      });
      FAIL() << "expected an exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "chunk3");
    }
  }
}

TEST(ThreadPoolTest, NestedParallelForRunsInline) {
  ThreadPool pool(4);
  constexpr size_t kOuter = 16, kInner = 100;
  std::vector<std::vector<int>> sums(kOuter, std::vector<int>(kInner, 0));
  pool.ParallelFor(kOuter, 1, [&](size_t c, size_t, size_t) {
    // A worker thread re-entering ParallelFor must not block on the
    // pool (deadlock) — it runs its chunks inline.
    pool.ParallelFor(kInner, 8, [&](size_t, size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) sums[c][i] += 1;
    });
  });
  for (const auto& row : sums) {
    for (int v : row) EXPECT_EQ(v, 1);
  }
}

TEST(ThreadPoolTest, ParallelForStatusReturnsLowestIndexError) {
  ThreadPool pool(3);
  Status st = ParallelForStatus(&pool, 10, 1,
                                [&](size_t c, size_t, size_t) -> Status {
                                  if (c == 2) return Status::Internal("err2");
                                  if (c == 7) return Status::Internal("err7");
                                  return Status::OK();
                                });
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("err2"), std::string::npos);

  // The free-function dispatcher has identical semantics serially.
  Status st2 = ParallelForStatus(nullptr, 10, 1,
                                 [&](size_t c, size_t, size_t) -> Status {
                                   return c == 5 ? Status::Internal("err5")
                                                 : Status::OK();
                                 });
  ASSERT_FALSE(st2.ok());
  EXPECT_NE(st2.message().find("err5"), std::string::npos);
}

TEST(ThreadPoolTest, ConcurrentExternalCallersSerialize) {
  ThreadPool pool(4);
  constexpr size_t kN = 20000;
  std::vector<int> a(kN, 0), b(kN, 0);
  std::thread t1([&] {
    for (int rep = 0; rep < 10; ++rep) {
      pool.ParallelFor(kN, 256, [&](size_t, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ++a[i];
      });
    }
  });
  std::thread t2([&] {
    for (int rep = 0; rep < 10; ++rep) {
      pool.ParallelFor(kN, 256, [&](size_t, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) ++b[i];
      });
    }
  });
  t1.join();
  t2.join();
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(a[i], 10);
    ASSERT_EQ(b[i], 10);
  }
}

TEST(ThreadPoolTest, DefaultNumThreadsHonorsEnv) {
  ::setenv("PF_THREADS", "5", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 5);
  ::setenv("PF_THREADS", "1", 1);
  EXPECT_EQ(ThreadPool::DefaultNumThreads(), 1);
  ::unsetenv("PF_THREADS");
  EXPECT_GE(ThreadPool::DefaultNumThreads(), 1);
}

}  // namespace
}  // namespace pathfinder
