// Per-round lifecycle span recorder: a bounded ring buffer of recent rounds,
// each holding a wall-clock start timestamp and the measured duration of
// every pipeline phase (admit -> seal -> merge -> close/synthesis ->
// delivery -> journal -> commit -> checkpoint).
//
// Phases arrive from different threads (ingest thread, async closer,
// delivery worker, checkpoint worker) at different times; the ring is keyed
// by round so late phases land in the right slot. A slot is recycled when a
// newer round maps onto it; phases for rounds that have already been
// recycled are dropped (bounded memory beats completeness here).

#ifndef RETRASYN_TELEMETRY_ROUND_TRACE_H_
#define RETRASYN_TELEMETRY_ROUND_TRACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/mutex.h"

namespace retrasyn {

enum class RoundPhase : int {
  kAdmit = 0,      // first event admitted -> round boundary (ingest dwell)
  kSeal,           // per-shard seal (parallel) at the boundary
  kMerge,          // k-way merge of sealed shards (parallel user-id ranges)
  kClose,          // engine Observe: LDP collection + DMU + synthesis
  kDeliver,        // release construction + sink fan-out
  kJournal,        // round-boundary journal append + fsync
  kCommit,         // index-lifecycle commit + per-shard commit
  kCheckpoint,     // background checkpoint write (when due)
};
inline constexpr int kNumRoundPhases = 8;

const char* RoundPhaseName(RoundPhase phase);

/// One traced round: wall-clock start plus per-phase durations. Phases that
/// did not occur (e.g. checkpoint on a non-cadence round) stay 0.
struct RoundSpanSnapshot {
  int64_t round = -1;
  double start_unix_seconds = 0.0;  // wall clock of the first recorded phase
  std::array<double, kNumRoundPhases> phase_seconds{};
};

class RoundTrace {
 public:
  explicit RoundTrace(size_t capacity = 128);

  /// Records `seconds` for `phase` of `round`. First phase recorded for a
  /// round stamps the slot's wall-clock start. Thread-safe; stale rounds
  /// (already evicted by a newer round in the same slot) are dropped.
  void RecordPhase(int64_t round, RoundPhase phase, double seconds);

  /// Recent rounds in ascending round order (at most `capacity` entries).
  std::vector<RoundSpanSnapshot> Snapshot() const;

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable Mutex mu_;
  std::vector<RoundSpanSnapshot> ring_ GUARDED_BY(mu_);
};

}  // namespace retrasyn

#endif  // RETRASYN_TELEMETRY_ROUND_TRACE_H_
