// Real-time downstream analytics over the private release (paper SI: traffic
// monitoring, congestion prediction, emergency response).
//
// The server is a ReleaseSink: subscribe it to a TrajectoryService and it
// records each closed round's released density, serving location-based
// queries over any time window seen so far — without ever touching raw user
// data and without consuming additional privacy budget (post-processing,
// Thm. 2). It is the online counterpart of the post-hoc DensityIndex: a
// consistency test certifies that its answers equal the post-hoc answers
// computed from the finished release.
//
// The query surface is hardened for service use: timestamps outside the
// ingested horizon (including negative ones) answer zero/empty, and range
// queries are clamped to the grid and horizon instead of indexing out of
// bounds.
//
// Retention: by default every round's density is kept forever, which grows
// without bound on an infinite stream — the same leak class as cumulative
// stream indices. Construct with a retention horizon to keep only the
// trailing `retention_rounds` rounds; evicted timestamps answer zero/empty,
// exactly like timestamps that were never ingested (the out-of-horizon
// contract, extended backwards).

#ifndef RETRASYN_CORE_RELEASE_SERVER_H_
#define RETRASYN_CORE_RELEASE_SERVER_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "core/release_sink.h"
#include "geo/spatial_grid.h"
#include "metrics/queries.h"

namespace retrasyn {

class ReleaseServer : public ReleaseSink {
 public:
  /// \param retention_rounds  Query horizon: how many trailing rounds stay
  /// queryable. 0 (default) retains everything — only suitable for bounded
  /// streams; long-running deployments should set it to their largest query
  /// window so memory stays O(retention * cells) instead of O(horizon).
  explicit ReleaseServer(const SpatialGrid& grid, int64_t retention_rounds = 0);

  /// ReleaseSink: records one closed round. Rounds must arrive in strictly
  /// increasing timestamp order (the service guarantees this); a server
  /// subscribed mid-stream zero-backfills the rounds it missed so round t
  /// always lands at index t. A duplicate or out-of-order round, or a
  /// density of the wrong cardinality for this server's grid, returns
  /// InvalidArgument and records nothing.
  Status OnRound(const RoundRelease& round) override;

  /// Number of ingested timestamps (also the next expected timestamp).
  int64_t horizon() const { return next_t_; }

  /// The configured retention horizon; 0 = unlimited.
  int64_t retention_rounds() const { return retention_; }

  /// The earliest timestamp still retained (0 until eviction starts).
  /// Retained rounds are [first_retained(), horizon()).
  int64_t first_retained() const { return first_retained_; }

  /// Released per-cell density at timestamp \p t. All-zero for timestamps
  /// outside the retained horizon (not yet ingested, negative, or evicted
  /// by the retention bound).
  const std::vector<uint32_t>& DensityAt(int64_t t) const;

  /// Released active population at \p t; zero outside the retained horizon.
  uint64_t ActiveAt(int64_t t) const;

  /// Points inside a spatio-temporal range query (clamped to the retained
  /// horizon and the grid bounds; evicted rounds contribute zero). Row/column
  /// rectangles only exist on the uniform lattice: aborts when this server's
  /// grid has no uniform view — use BoxCount for backend-agnostic queries.
  uint64_t RangeCount(const RangeQuery& query) const;

  /// Backend-agnostic spatial count: points over [t_start, t_end) in cells
  /// whose center lies inside \p box (the same region semantics as the
  /// post-hoc DensityIndex::CountBox, so the consistency contract holds for
  /// every grid backend).
  uint64_t BoxCount(const BoundingBox& box, int64_t t_start,
                    int64_t t_end) const;

  /// The k busiest cells over [t_start, t_end), busiest first.
  std::vector<CellId> TopHotspots(int64_t t_start, int64_t t_end,
                                  int k) const;

  /// Mean released population over the trailing \p window timestamps ending
  /// at the latest ingested timestamp; a simple congestion baseline. Zero
  /// when nothing was ingested or \p window < 1.
  double TrailingMeanActive(int window) const;

 private:
  const SpatialGrid* grid_;
  std::vector<uint32_t> zeros_;  ///< out-of-retention answer
  /// Retained rounds, densities and totals; index 0 holds timestamp
  /// first_retained_. Deques so retention eviction pops the front in O(1)
  /// without invalidating DensityAt's returned references to other rounds.
  std::deque<std::vector<uint32_t>> density_;
  std::deque<uint64_t> active_;
  int64_t next_t_ = 0;           ///< next expected timestamp
  int64_t retention_ = 0;        ///< trailing rounds kept; 0 = unlimited
  int64_t first_retained_ = 0;   ///< timestamp held at density_[0]
};

}  // namespace retrasyn

#endif  // RETRASYN_CORE_RELEASE_SERVER_H_
