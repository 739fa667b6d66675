#include "core/release_server.h"

#include <algorithm>

#include "common/logging.h"
#include "metrics/histogram.h"

namespace retrasyn {

ReleaseServer::ReleaseServer(const SpatialGrid& grid, int64_t retention_rounds)
    : grid_(&grid), zeros_(grid.NumCells(), 0) {
  RETRASYN_CHECK_MSG(retention_rounds >= 0,
                     "retention_rounds must be >= 0 (0 = unlimited)");
  retention_ = retention_rounds;
}

Status ReleaseServer::OnRound(const RoundRelease& round) {
  const int64_t t = round.t;
  const std::vector<uint32_t>& density = round.density;
  if (density.size() != grid_->NumCells()) {
    return Status::InvalidArgument(
        "round " + std::to_string(t) + " carries " +
        std::to_string(density.size()) + " cells; this server's grid has " +
        std::to_string(grid_->NumCells()));
  }
  if (t < next_t_) {
    return Status::InvalidArgument(
        "round " + std::to_string(t) + " is already recorded (next expected " +
        "timestamp is " + std::to_string(next_t_) +
        "); rounds are immutable and must arrive in increasing order");
  }
  // A server subscribed mid-stream missed the earlier rounds; record them as
  // zeros so timestamps keep their identity and stale ones answer zero,
  // consistent with the out-of-horizon policy. Under a retention bound a gap
  // wider than the whole horizon fast-forwards instead of materializing (and
  // immediately evicting) a zero row per missed round.
  if (retention_ > 0 && t - next_t_ >= retention_) {
    density_.clear();
    active_.clear();
    next_t_ = t;
    first_retained_ = t;
  }
  while (next_t_ < t) {
    active_.push_back(0);
    density_.push_back(zeros_);
    ++next_t_;
  }
  active_.push_back(round.active);
  density_.push_back(density);
  ++next_t_;
  // Retention bound: evict the oldest rounds so memory stays
  // O(retention * cells) on an unbounded stream. An evicted timestamp
  // answers zero from then on, like one that was never ingested.
  if (retention_ > 0) {
    while (next_t_ - first_retained_ > retention_) {
      density_.pop_front();
      active_.pop_front();
      ++first_retained_;
    }
  }
  return Status::OK();
}

const std::vector<uint32_t>& ReleaseServer::DensityAt(int64_t t) const {
  if (t < first_retained_ || t >= horizon()) return zeros_;
  return density_[t - first_retained_];
}

uint64_t ReleaseServer::ActiveAt(int64_t t) const {
  if (t < first_retained_ || t >= horizon()) return 0;
  return active_[t - first_retained_];
}

uint64_t ReleaseServer::RangeCount(const RangeQuery& query) const {
  const UniformGrid* uniform = grid_->AsUniform();
  RETRASYN_CHECK_MSG(uniform != nullptr,
                     "RangeCount requires a uniform grid; use BoxCount");
  const int64_t lo = std::max(first_retained_, query.t_start);
  const int64_t hi = std::min<int64_t>(horizon(), query.t_end);
  const uint32_t row_hi = std::min(query.row_hi, uniform->k() - 1);
  const uint32_t col_hi = std::min(query.col_hi, uniform->k() - 1);
  uint64_t total = 0;
  for (int64_t t = lo; t < hi; ++t) {
    const auto& cells = density_[t - first_retained_];
    for (uint32_t r = query.row_lo; r <= row_hi; ++r) {
      for (uint32_t c = query.col_lo; c <= col_hi; ++c) {
        total += cells[uniform->Cell(r, c)];
      }
    }
  }
  return total;
}

uint64_t ReleaseServer::BoxCount(const BoundingBox& box, int64_t t_start,
                                 int64_t t_end) const {
  // Membership by cell center, matching DensityIndex::CountBox: on the
  // uniform lattice this is exactly the rectangle of cells, and on adaptive
  // backends it assigns each cell to a query unambiguously.
  std::vector<CellId> cells;
  for (CellId c = 0; c < grid_->NumCells(); ++c) {
    if (box.Contains(grid_->CellCenter(c))) cells.push_back(c);
  }
  const int64_t lo = std::max(first_retained_, t_start);
  const int64_t hi = std::min<int64_t>(horizon(), t_end);
  uint64_t total = 0;
  for (int64_t t = lo; t < hi; ++t) {
    const auto& density = density_[t - first_retained_];
    for (CellId c : cells) total += density[c];
  }
  return total;
}

std::vector<CellId> ReleaseServer::TopHotspots(int64_t t_start, int64_t t_end,
                                               int k) const {
  std::vector<double> aggregate(grid_->NumCells(), 0.0);
  const int64_t lo = std::max(first_retained_, t_start);
  const int64_t hi = std::min<int64_t>(horizon(), t_end);
  for (int64_t t = lo; t < hi; ++t) {
    const auto& cells = density_[t - first_retained_];
    for (CellId c = 0; c < grid_->NumCells(); ++c) aggregate[c] += cells[c];
  }
  return TopKIndices(aggregate, k);
}

double ReleaseServer::TrailingMeanActive(int window) const {
  if (window < 1 || active_.empty()) return 0.0;
  const int64_t lo = std::max(first_retained_, horizon() - window);
  double sum = 0.0;
  for (int64_t t = lo; t < horizon(); ++t) sum += active_[t - first_retained_];
  return sum / static_cast<double>(horizon() - lo);
}

}  // namespace retrasyn
