#ifndef PATHFINDER_BASE_THREAD_POOL_H_
#define PATHFINDER_BASE_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "base/status.h"

namespace pathfinder {

/// Fixed-size worker pool running morsel-wise ParallelFor loops over
/// row ranges (the execution backbone of the parallel BAT kernel and
/// the parallel staircase join).
///
/// Determinism contract: ParallelFor splits [0, n) into chunks of
/// `grain` rows. Chunk boundaries are a function of (n, grain) ONLY —
/// never of the pool size or of runtime scheduling — so a caller that
/// keys all shared state on the chunk index and merges per-chunk
/// results in chunk order computes the same bytes at every thread
/// count. Every kernel operator built on this class follows that rule.
class ThreadPool {
 public:
  /// Spawns num_threads - 1 workers; the thread calling ParallelFor
  /// always participates as the remaining worker.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// fn(chunk, lo, hi): chunk index and the half-open row range it
  /// covers. fn runs concurrently for different chunks.
  using ChunkFn = std::function<void(size_t chunk, size_t lo, size_t hi)>;
  using ChunkStatusFn =
      std::function<Status(size_t chunk, size_t lo, size_t hi)>;

  /// Runs fn over every chunk of [0, n) and blocks until all chunks
  /// finished. Every chunk runs even if an earlier one threw; the
  /// exception of the lowest-index throwing chunk is rethrown in the
  /// caller afterwards. A nested call from inside a worker (including
  /// the participating caller thread) runs inline — sequentially, same
  /// chunk structure — instead of deadlocking on the pool.
  void ParallelFor(size_t n, size_t grain, const ChunkFn& fn);

  /// Number of chunks ParallelFor uses for a range of n rows.
  static size_t NumChunks(size_t n, size_t grain) {
    if (grain == 0) grain = 1;
    return n == 0 ? 0 : (n - 1) / grain + 1;
  }

  /// Process-wide pool sized by DefaultNumThreads(). Returns nullptr
  /// when that size is 1: callers treat nullptr as "run serially on
  /// this thread" (the exact legacy code path).
  static ThreadPool* Default();

  /// PF_THREADS if set and >= 1, else std::thread::hardware_concurrency.
  static int DefaultNumThreads();

 private:
  // Per-ParallelFor state, shared_ptr-held so a worker that wakes late
  // (after the job completed and a new one was posted) still reads a
  // consistent, immutable snapshot and simply finds no chunk to claim.
  struct Job {
    const ChunkFn* fn = nullptr;
    size_t n = 0;
    size_t grain = 0;
    size_t chunks = 0;
    std::atomic<size_t> next{0};
    size_t done = 0;  // guarded by pool mu_
    std::vector<std::exception_ptr> errs;
  };

  void WorkerLoop();
  void RunChunks(Job* job);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers: job posted / stop
  std::condition_variable done_cv_;  // caller: all chunks finished
  bool stop_ = false;
  uint64_t job_seq_ = 0;  // bumped when a job is posted
  std::shared_ptr<Job> job_;

  std::mutex submit_mu_;  // serializes external ParallelFor callers
};

/// Dispatch helpers used by all kernel call sites: run on `pool` when
/// non-null, inline (same chunk structure, sequential) when null, so
/// the computation is identical at every thread count including 1.
void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const ThreadPool::ChunkFn& fn);
/// Status-returning variant: runs every chunk and returns the non-OK
/// status of the lowest chunk index (or OK).
Status ParallelForStatus(ThreadPool* pool, size_t n, size_t grain,
                         const ThreadPool::ChunkStatusFn& fn);

}  // namespace pathfinder

#endif  // PATHFINDER_BASE_THREAD_POOL_H_
