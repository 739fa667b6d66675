// A persistent pool of worker threads for chunked parallel loops.
//
// The synthesis phases previously spawned and joined fresh std::threads twice
// per round; at real-time round rates the spawn/join cost rivals the work
// itself. This pool keeps the workers alive across rounds (and across engines:
// TrajectoryService threads one pool through several sessions via
// RetraSynConfig::thread_pool). ParallelFor is called from whatever thread
// drives the engine — the ingest thread under SyncPolicy::kInline, a
// service's round-closer worker under SyncPolicy::kAsync — and concurrent
// callers (several async services sharing one pool) are serialized
// internally, each running its own job to completion.
//
// Determinism contract: ParallelFor hands out chunk *indices*; which thread
// executes which chunk is scheduling-dependent, so callers must make the work
// a pure function of the chunk index (disjoint output slots, per-chunk RNGs).
// Where the chunking itself shapes the result — the synthesizer's chunks each
// draw from their own RNG — the chunk count must come from the work size,
// never from the pool. Under that discipline results are byte-identical for
// any pool size, including a pool of size 1 and no pool at all (the same
// chunks then run inline).

#ifndef RETRASYN_COMMON_THREAD_POOL_H_
#define RETRASYN_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace retrasyn {

class ThreadPool {
 public:
  /// Creates a pool with \p num_threads total executors: num_threads - 1
  /// background workers plus the thread calling ParallelFor, which always
  /// participates. Requires num_threads >= 1 (1 = no background workers;
  /// ParallelFor then runs every chunk inline).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total executors (background workers + the calling thread).
  int num_threads() const { return num_threads_; }

  /// The hardware's concurrency, floored at 1 (hardware_concurrency() may
  /// report 0 on exotic platforms). The natural pool size for CPU-bound work
  /// like per-shard batch sealing: more threads than cores just adds
  /// scheduling churn.
  static int DefaultConcurrency();

  /// Runs fn(chunk) for every chunk in [0, num_chunks) and returns when all
  /// have completed. Chunks are claimed dynamically (an atomic ticket), so
  /// uneven chunks balance across workers. Safe to call from multiple threads
  /// concurrently: invocations are serialized internally, which is exactly
  /// the sharing discipline multi-tenant sessions need.
  void ParallelFor(int num_chunks, const std::function<void(int)>& fn)
      EXCLUDES(submit_mu_, mu_);

 private:
  /// One ParallelFor invocation. Heap-allocated and pinned by each
  /// participating worker via shared_ptr, so a worker that resumes late finds
  /// an exhausted ticket instead of state recycled for the next job.
  struct Job {
    const std::function<void(int)>* fn = nullptr;
    int num_chunks = 0;
    std::atomic<int> next_chunk{0};  ///< claim ticket
    std::atomic<int> pending{0};     ///< chunks not yet completed
  };

  void WorkerLoop() EXCLUDES(mu_);
  /// Claims and runs chunks of \p job until none remain. Takes mu_ briefly
  /// to publish the final wakeup.
  void RunChunks(Job& job) EXCLUDES(mu_);

  const int num_threads_;
  std::vector<std::thread> workers_;

  /// Serializes concurrent ParallelFor callers; always taken before mu_.
  Mutex submit_mu_ ACQUIRED_BEFORE(mu_);

  Mutex mu_;
  CondVar work_ready_;
  CondVar work_done_;
  std::shared_ptr<Job> job_ GUARDED_BY(mu_);
  /// Bumped per job so workers detect new work.
  uint64_t generation_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_THREAD_POOL_H_
