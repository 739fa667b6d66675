// The per-service telemetry bundle: one MetricsRegistry + one RoundTrace +
// the sticky first-failure record. A TrajectoryService always owns exactly
// one Telemetry and hands it by reference to every layer it builds (ingest
// session, round closer, journal writers, checkpoint manager), which
// register their metrics at construction and record unconditionally. Only
// a bare engine (RetraSynEngine / Synthesizer, the batch pipeline) has a
// detached mode: its AttachTelemetry is optional, and the CI gate
// `bench_round_latency --telemetry_budget` measures what attaching costs.
//
// Everything here is observation-only. Attaching telemetry never changes
// released bytes (EngineTest.TelemetryIsObservationOnly in
// tests/core/engine_test.cc).

#ifndef RETRASYN_TELEMETRY_TELEMETRY_H_
#define RETRASYN_TELEMETRY_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/round_trace.h"

namespace retrasyn {

/// Sticky record of the first background poisoning: which component failed
/// first, when, and with what status. Background errors (journal fsync,
/// checkpoint worker, async closer) otherwise surface only as a failed
/// *later* Tick(), long after the root cause.
struct FirstFailure {
  bool failed = false;
  std::string component;       // "journal", "checkpoint", "closer", ...
  StatusCode code = StatusCode::kOk;
  std::string message;
  double unix_seconds = 0.0;   // wall clock when the failure was recorded
  int64_t round = -1;          // round being processed, -1 if unknown
};

/// Consistent point-in-time view of the whole subsystem, returned by
/// TrajectoryService::telemetry() and consumed by the Prometheus writer.
struct TelemetrySnapshot {
  std::vector<MetricSample> metrics;
  std::vector<RoundSpanSnapshot> recent_rounds;
  FirstFailure first_failure;
};

class Telemetry {
 public:
  explicit Telemetry(size_t trace_capacity = 128);
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  MetricsRegistry& registry() { return registry_; }
  RoundTrace& trace() { return trace_; }

  /// Records the first failure only (later calls still bump the component's
  /// poisoning counters at the call site; the sticky record keeps the root
  /// cause). OK statuses are ignored. Thread-safe, callable under component
  /// locks (the internal mutex is a leaf).
  void RecordFailure(const std::string& component, const Status& status,
                     int64_t round = -1);

  FirstFailure first_failure() const;
  TelemetrySnapshot Snapshot() const;

 private:
  MetricsRegistry registry_;
  RoundTrace trace_;
  /// Leaf mutex: RecordFailure is callable while holding any component
  /// lock (closer mu_, checkpoint mu_, shard mu); nothing is acquired under
  /// it. See docs/concurrency.md, lock ordering.
  mutable Mutex failure_mu_;
  FirstFailure first_failure_ GUARDED_BY(failure_mu_);
};

}  // namespace retrasyn

#endif  // RETRASYN_TELEMETRY_TELEMETRY_H_
