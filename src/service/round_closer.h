// The asynchronous round-closing pipeline behind TrajectoryService's
// SyncPolicy::kAsync: the ingest thread seals a round's TimestampBatch and
// Submit()s it to a bounded queue; a dedicated closer worker runs the heavy
// close step (LDP collection + model update + synthesis — the parallel work
// inside still uses the engine's ThreadPool) off the ingest thread; a second
// delivery worker pushes the resulting RoundReleases to sinks. Each stage is
// a single thread consuming a FIFO queue, so rounds close and sinks observe
// releases in strictly increasing timestamp order, and a slow sink delays
// delivery without stalling the closer.
//
// Determinism: the closer invokes the close callback once per round, in
// submission order, from one thread — the same call sequence Inline mode
// makes from the ingest thread — so for a fixed seed the release sequence
// is byte-identical to Inline.
//
// Stream-index retirement (IngestSessionOptions::window >= 1) never crosses
// this pipeline: the engine retires quitted indices inside the close step —
// on the closer worker under kAsync — while the ingest thread derives the
// identical retirement independently from the batch sequence
// (IngestSession). That is what keeps Inline and Async assignments
// byte-identical even though the closer lags the ingest thread.
//
// Telemetry: the closer registers its queue-depth gauge, queue-wait and
// close histograms, backpressure and poisoning counters in the Telemetry
// it is built with, and records the first failure there.
//
// Failure: the first non-OK status from either callback poisons the
// pipeline. Queued rounds are dropped, and the error is returned (sticky)
// from every subsequent Submit() and from Drain() — a handler failure
// surfaces on the next Tick()/Drain() instead of being swallowed. Rounds
// closed before the failure remain delivered and valid.
//
// Thread-safety: Submit()/Drain()/in_flight() may be called from one ingest
// thread; destroying the closer joins the workers and discards any rounds
// still queued (Drain() first to guarantee completion).

#ifndef RETRASYN_SERVICE_ROUND_CLOSER_H_
#define RETRASYN_SERVICE_ROUND_CLOSER_H_

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>

#include "common/mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/release_sink.h"
#include "stream/feeder.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

class RoundCloser {
 public:
  /// Runs the heavy round work (engine Observe + release construction) on
  /// the closer worker. The returned release is handed to \p deliver.
  using CloseFn = std::function<Result<RoundRelease>(const TimestampBatch&)>;
  /// Fans one release out to the subscribed sinks, on the delivery worker,
  /// in round order.
  using DeliverFn = std::function<Status(const RoundRelease&)>;

  struct Options {
    size_t queue_capacity = 8;  ///< sealed batches waiting for the closer
    /// Invoked on the closer worker after the close callback has consumed a
    /// batch (whether it succeeded or not — only the buffer matters), so the
    /// observation vector can return to the session's reuse pool instead of
    /// being freed. Required.
    std::function<void(TimestampBatch&&)> recycle;
  };

  /// \p telemetry is the service's (not owned; must outlive the closer).
  RoundCloser(Options options, Telemetry& telemetry, CloseFn close,
              DeliverFn deliver);
  ~RoundCloser();

  RoundCloser(const RoundCloser&) = delete;
  RoundCloser& operator=(const RoundCloser&) = delete;

  /// Hands a sealed round to the pipeline, blocking while the queue is full.
  /// Returns the sticky pipeline error if a previous round failed (the batch
  /// is NOT enqueued — the caller's round state should stay un-committed).
  Status Submit(TimestampBatch batch) EXCLUDES(mu_);

  /// Barrier: returns once every submitted round has been closed and its
  /// release delivered (or dropped by a failure). Returns the sticky
  /// pipeline error, OK otherwise. Required before SnapshotRelease().
  Status Drain() EXCLUDES(mu_);

  /// Rounds submitted but not yet fully closed + delivered. 0 after a
  /// successful Drain().
  size_t in_flight() const EXCLUDES(mu_);

  /// The sticky pipeline error (OK while healthy). Unlike Drain(), does not
  /// wait for in-flight rounds.
  Status deferred_error() const EXCLUDES(mu_);

 private:
  void CloserLoop() EXCLUDES(mu_);
  void DeliveryLoop() EXCLUDES(mu_);
  /// Drops every queued round/release after a failure.
  void PoisonLocked(const Status& error) REQUIRES(mu_);

  const Options options_;
  const CloseFn close_;
  const DeliverFn deliver_;

  /// One queued round: the sealed batch plus its enqueue time, so the
  /// closer can record how long the round waited behind its predecessors.
  struct QueuedRound {
    TimestampBatch batch;
    std::chrono::steady_clock::time_point enqueued;
  };

  // Telemetry, registered by the constructor; never null.
  Telemetry& telemetry_;
  Gauge* queue_depth_metric_ = nullptr;
  LatencyHistogram* queue_wait_hist_ = nullptr;
  LatencyHistogram* close_hist_ = nullptr;
  Counter* backpressure_blocks_metric_ = nullptr;
  Counter* poisonings_metric_ = nullptr;

  mutable Mutex mu_;
  CondVar cv_;  ///< any state change; waiters re-check
  /// Sealed rounds waiting for the closer.
  std::deque<QueuedRound> rounds_ GUARDED_BY(mu_);
  /// Closed releases waiting for delivery.
  std::deque<RoundRelease> releases_ GUARDED_BY(mu_);
  size_t submitted_ GUARDED_BY(mu_) = 0;
  /// Delivered, failed, or dropped.
  size_t finished_ GUARDED_BY(mu_) = 0;
  Status error_ GUARDED_BY(mu_);  ///< first failure; sticky
  bool stop_ GUARDED_BY(mu_) = false;

  std::thread closer_;
  std::thread delivery_;
};

}  // namespace retrasyn

#endif  // RETRASYN_SERVICE_ROUND_CLOSER_H_
