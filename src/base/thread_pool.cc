#include "base/thread_pool.h"

#include <algorithm>
#include <cstdlib>

namespace pathfinder {

namespace {

// Set while a thread executes chunks of some job; a nested ParallelFor
// from such a thread runs inline instead of blocking on the pool.
thread_local bool tls_in_worker = false;

// Runs every chunk in order on the calling thread. Every chunk runs even
// if an earlier one threw, and the lowest-index exception is rethrown
// afterwards: the pool's semantics, so callers observe identical
// behavior either way.
void RunSerial(size_t n, size_t grain, const ThreadPool::ChunkFn& fn) {
  std::exception_ptr first_err;
  const size_t chunks = ThreadPool::NumChunks(n, grain);
  for (size_t c = 0; c < chunks; ++c) {
    size_t lo = c * grain;
    size_t hi = std::min(n, lo + grain);
    try {
      fn(c, lo, hi);
    } catch (...) {
      if (!first_err) first_err = std::current_exception();
    }
  }
  if (first_err) std::rethrow_exception(first_err);
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(num_threads < 1 ? 1 : num_threads) {
  workers_.reserve(static_cast<size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mu_);
  while (true) {
    work_cv_.wait(lk, [&] { return stop_ || job_seq_ != seen; });
    if (stop_) return;
    seen = job_seq_;
    std::shared_ptr<Job> job = job_;
    lk.unlock();
    if (job) RunChunks(job.get());
    lk.lock();
  }
}

void ThreadPool::RunChunks(Job* job) {
  bool was_worker = tls_in_worker;
  tls_in_worker = true;
  while (true) {
    size_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->chunks) break;
    size_t lo = c * job->grain;
    size_t hi = std::min(job->n, lo + job->grain);
    try {
      (*job->fn)(c, lo, hi);
    } catch (...) {
      job->errs[c] = std::current_exception();
    }
    std::lock_guard<std::mutex> lk(mu_);
    if (++job->done == job->chunks) done_cv_.notify_all();
  }
  tls_in_worker = was_worker;
}

void ThreadPool::ParallelFor(size_t n, size_t grain, const ChunkFn& fn) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  size_t chunks = NumChunks(n, grain);
  if (num_threads_ == 1 || chunks == 1 || tls_in_worker) {
    RunSerial(n, grain, fn);
    return;
  }
  std::lock_guard<std::mutex> submit(submit_mu_);
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->n = n;
  job->grain = grain;
  job->chunks = chunks;
  job->errs.resize(chunks);
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    ++job_seq_;
  }
  work_cv_.notify_all();
  RunChunks(job.get());  // the caller participates
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] { return job->done == job->chunks; });
  }
  for (std::exception_ptr& e : job->errs) {
    if (e) std::rethrow_exception(e);
  }
}

int ThreadPool::DefaultNumThreads() {
  if (const char* env = std::getenv("PF_THREADS")) {
    char* end = nullptr;
    long v = std::strtol(env, &end, 10);
    if (end != env && v >= 1) return static_cast<int>(v);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool* ThreadPool::Default() {
  static const int n = DefaultNumThreads();
  if (n <= 1) return nullptr;
  static ThreadPool pool(n);
  return &pool;
}

void ParallelFor(ThreadPool* pool, size_t n, size_t grain,
                 const ThreadPool::ChunkFn& fn) {
  if (pool != nullptr) {
    pool->ParallelFor(n, grain, fn);
    return;
  }
  RunSerial(n, grain == 0 ? 1 : grain, fn);
}

Status ParallelForStatus(ThreadPool* pool, size_t n, size_t grain,
                         const ThreadPool::ChunkStatusFn& fn) {
  std::vector<Status> sts(ThreadPool::NumChunks(n, grain));
  ParallelFor(pool, n, grain, [&](size_t c, size_t lo, size_t hi) {
    sts[c] = fn(c, lo, hi);
  });
  for (Status& s : sts) PF_RETURN_NOT_OK(s);
  return Status::OK();
}

}  // namespace pathfinder
