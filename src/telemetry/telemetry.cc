#include "telemetry/telemetry.h"

#include <chrono>

namespace retrasyn {

Telemetry::Telemetry(size_t trace_capacity) : trace_(trace_capacity) {}

void Telemetry::RecordFailure(const std::string& component,
                              const Status& status, int64_t round) {
  if (status.ok()) return;
  MutexLock lock(failure_mu_);
  if (first_failure_.failed) return;
  first_failure_.failed = true;
  first_failure_.component = component;
  first_failure_.code = status.code();
  first_failure_.message = status.message();
  first_failure_.round = round;
  first_failure_.unix_seconds =
      std::chrono::duration<double>(
          std::chrono::system_clock::now().time_since_epoch())
          .count();
}

FirstFailure Telemetry::first_failure() const {
  MutexLock lock(failure_mu_);
  return first_failure_;
}

TelemetrySnapshot Telemetry::Snapshot() const {
  TelemetrySnapshot snap;
  snap.metrics = registry_.Collect();
  snap.recent_rounds = trace_.Snapshot();
  snap.first_failure = first_failure();
  return snap;
}

}  // namespace retrasyn
