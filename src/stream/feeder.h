// Turns a StreamDatabase into the per-timestamp view the collection engines
// consume: for each timestamp, the set of users eligible to report and the
// transition state each would report (paper SIII-B, Fig. 2 step 1).
//
// Eligibility at timestamp t:
//  * a stream entering at t reports e_{c_t};
//  * a stream active at both t-1 and t reports m_{c_{t-1}, c_t};
//  * a stream whose final report was at t-1 reports q_{c_{t-1}} at t
//    (Def. 5: the quit transition carries the final reported location).
//
// The feeder also exposes the discretized original streams, which the metrics
// take as ground truth.

#ifndef RETRASYN_STREAM_FEEDER_H_
#define RETRASYN_STREAM_FEEDER_H_

#include <cstdint>
#include <vector>

#include "geo/state_space.h"
#include "stream/cell_stream.h"
#include "stream/stream_database.h"

namespace retrasyn {

/// \brief Hard cap on engine-facing stream indices (valid indices are
/// [0, kMaxStreamIndex)). The engine's per-user bookkeeping is dense over
/// these indices, so the cap turns a miskeyed device id (which would silently
/// allocate gigabytes) into an immediate, diagnosable failure while leaving
/// ample headroom over paper-scale populations. IngestSession::Tick() refuses
/// to mint an index at the cap with kResourceExhausted; with index recycling
/// (IngestSessionOptions::window >= 1) the cap is only reachable at ~1.07B
/// streams live or retained inside one w-window.
constexpr uint32_t kMaxStreamIndex = 1u << 30;

struct UserObservation {
  uint32_t user_index = 0;  ///< index into StreamDatabase::streams()
  StateId state = kInvalidState;
  bool is_quit = false;  ///< true when this is the user's final (quit) report
  bool is_enter = false; ///< true when this is the user's first report
};

struct TimestampBatch {
  int64_t t = 0;
  std::vector<UserObservation> observations;
  /// Number of streams reporting an actual location at t (quit reports are
  /// not locations). This is the target for synthetic size adjustment.
  uint32_t num_active = 0;
};

class StreamFeeder {
 public:
  StreamFeeder(const StreamDatabase& db, const SpatialGrid& grid,
               const StateSpace& states);

  int64_t num_timestamps() const {
    return static_cast<int64_t>(batches_.size());
  }
  const TimestampBatch& Batch(int64_t t) const { return batches_[t]; }

  /// Original streams mapped to grid cells (metrics ground truth).
  const CellStreamSet& cell_streams() const { return cell_streams_; }

  uint32_t num_users() const { return num_users_; }

 private:
  std::vector<TimestampBatch> batches_;
  CellStreamSet cell_streams_;
  uint32_t num_users_ = 0;
};

}  // namespace retrasyn

#endif  // RETRASYN_STREAM_FEEDER_H_
