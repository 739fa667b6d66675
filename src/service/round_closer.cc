#include "service/round_closer.h"

#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace retrasyn {

RoundCloser::RoundCloser(Options options, Telemetry& telemetry, CloseFn close,
                         DeliverFn deliver)
    : options_(options), close_(std::move(close)),
      deliver_(std::move(deliver)), telemetry_(telemetry) {
  RETRASYN_CHECK(options_.queue_capacity >= 1);
  RETRASYN_CHECK(close_ != nullptr);
  RETRASYN_CHECK(deliver_ != nullptr);
  RETRASYN_CHECK(options_.recycle != nullptr);
  MetricsRegistry& registry = telemetry_.registry();
  queue_depth_metric_ = registry.GetGauge(
      "retrasyn_closer_queue_depth",
      "Sealed rounds waiting for the async closer worker");
  queue_wait_hist_ = registry.GetHistogram(
      "retrasyn_closer_queue_wait_seconds",
      "Time a sealed round waited in the closer queue");
  close_hist_ = registry.GetHistogram(
      "retrasyn_closer_close_seconds",
      "Close-callback duration on the closer worker (Observe + release)");
  backpressure_blocks_metric_ = registry.GetCounter(
      "retrasyn_closer_backpressure_blocks_total",
      "Submit() calls that blocked on a full queue");
  poisonings_metric_ = registry.GetCounter(
      "retrasyn_closer_poisonings_total",
      "Pipeline poisonings (close or delivery failures)");
  closer_ = std::thread([this] { CloserLoop(); });
  delivery_ = std::thread([this] { DeliveryLoop(); });
}

RoundCloser::~RoundCloser() {
  {
    MutexLock l(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  closer_.join();
  delivery_.join();
}

void RoundCloser::PoisonLocked(const Status& error) {
  if (error_.ok()) error_ = error;
  finished_ += rounds_.size() + releases_.size();
  rounds_.clear();
  releases_.clear();
  poisonings_metric_->Increment();
  queue_depth_metric_->Set(0);
  telemetry_.RecordFailure("closer", error);
}

Status RoundCloser::Submit(TimestampBatch batch) {
  MutexLock l(mu_);
  if (!error_.ok()) return error_;
  if (rounds_.size() >= options_.queue_capacity) {
    backpressure_blocks_metric_->Increment();
    while (!stop_ && error_.ok() &&
           rounds_.size() >= options_.queue_capacity) {
      cv_.Wait(mu_);
    }
    if (!error_.ok()) return error_;
    if (stop_) return Status::Internal("round closer is shutting down");
  }
  rounds_.push_back(QueuedRound{std::move(batch),
                                std::chrono::steady_clock::now()});
  ++submitted_;
  queue_depth_metric_->Set(static_cast<int64_t>(rounds_.size()));
  cv_.NotifyAll();
  return Status::OK();
}

Status RoundCloser::Drain() {
  MutexLock l(mu_);
  while (!stop_ && finished_ != submitted_) cv_.Wait(mu_);
  if (!error_.ok()) return error_;
  if (finished_ != submitted_) {
    return Status::Internal("round closer stopped with rounds in flight");
  }
  return Status::OK();
}

size_t RoundCloser::in_flight() const {
  MutexLock l(mu_);
  return submitted_ - finished_;
}

Status RoundCloser::deferred_error() const {
  MutexLock l(mu_);
  return error_;
}

void RoundCloser::CloserLoop() {
  // Holds mu_ across iterations with an explicit release window around the
  // close callback; the Lock/Unlock pairing is verified by the thread-safety
  // analysis on every path.
  mu_.Lock();
  for (;;) {
    while (!stop_ && rounds_.empty()) cv_.Wait(mu_);
    if (stop_) break;
    QueuedRound queued = std::move(rounds_.front());
    rounds_.pop_front();
    queue_depth_metric_->Set(static_cast<int64_t>(rounds_.size()));
    cv_.NotifyAll();  // a queue slot freed for a blocked Submit
    mu_.Unlock();
    queue_wait_hist_->Record(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      queued.enqueued)
            .count());
    TimestampBatch batch = std::move(queued.batch);
    Stopwatch close_watch;
    Result<RoundRelease> release = close_(batch);
    close_hist_->Record(close_watch.ElapsedSeconds());
    options_.recycle(std::move(batch));
    mu_.Lock();
    if (!release.ok()) {
      ++finished_;
      PoisonLocked(release.status());
      cv_.NotifyAll();
      continue;
    }
    if (!error_.ok()) {  // delivery failed while we were closing
      ++finished_;
      cv_.NotifyAll();
      continue;
    }
    if (release.value().density.empty()) {
      // Nothing to deliver (no sink was subscribed at close time); the round
      // is finished without entering the delivery stage.
      ++finished_;
      cv_.NotifyAll();
      continue;
    }
    // The delivery queue is bounded too: a persistently slow sink eventually
    // backpressures the closer, which backpressures Submit.
    while (!stop_ && error_.ok() &&
           releases_.size() >= options_.queue_capacity) {
      cv_.Wait(mu_);
    }
    if (stop_ || !error_.ok()) {
      ++finished_;
      cv_.NotifyAll();
      if (stop_) break;
      continue;
    }
    releases_.push_back(std::move(release).value());
    cv_.NotifyAll();
  }
  mu_.Unlock();
}

void RoundCloser::DeliveryLoop() {
  mu_.Lock();
  int64_t last_t = -1;
  for (;;) {
    while (!stop_ && releases_.empty()) cv_.Wait(mu_);
    if (stop_) break;
    RoundRelease release = std::move(releases_.front());
    releases_.pop_front();
    cv_.NotifyAll();  // a delivery slot freed for the closer
    mu_.Unlock();
    RETRASYN_DCHECK(release.t > last_t);  // strict round order
    last_t = release.t;
    (void)last_t;
    Status st = deliver_(release);
    mu_.Lock();
    ++finished_;
    if (!st.ok()) PoisonLocked(st);
    cv_.NotifyAll();
  }
  mu_.Unlock();
}

}  // namespace retrasyn
