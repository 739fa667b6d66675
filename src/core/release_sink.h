// Push-based consumption of the private release. A ReleaseSink subscribes to
// a TrajectoryService and receives one RoundRelease per closed ingestion
// round — the real-time alternative to polling the engine between Observe
// calls. Everything a sink sees is derived from LDP reports only
// (post-processing, Thm. 2), so sinks never need access to raw user data.

#ifndef RETRASYN_CORE_RELEASE_SINK_H_
#define RETRASYN_CORE_RELEASE_SINK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"

namespace retrasyn {

/// \brief The per-round release pushed to subscribers: the live synthetic
/// density right after the round's collection + synthesis step.
struct RoundRelease {
  int64_t t = 0;                   ///< the just-closed timestamp
  std::vector<uint32_t> density;   ///< per-cell live synthetic density
  uint64_t active = 0;             ///< total live synthetic population
};

class ReleaseSink {
 public:
  virtual ~ReleaseSink() = default;

  /// Called exactly once per closed round, in timestamp order, while the
  /// stream is still open. Implementations must not re-enter the service.
  /// A non-OK return poisons the service's round pipeline: the round stays
  /// committed (the engine consumed it before delivery), further rounds are
  /// refused, and the error surfaces, sticky, on the service's next
  /// Tick()/Drain()/SnapshotRelease — under both sync policies. Under
  /// SyncPolicy::kAsync the call arrives on the service's delivery thread,
  /// never the ingest thread — so sinks without internal locking (e.g.
  /// ReleaseServer) must not be read by the sink's owner while async rounds
  /// are in flight: Drain() the service first, which fences all deliveries.
  virtual Status OnRound(const RoundRelease& round) = 0;
};

}  // namespace retrasyn

#endif  // RETRASYN_CORE_RELEASE_SINK_H_
