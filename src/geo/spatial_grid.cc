#include "geo/spatial_grid.h"

#include <algorithm>

#include "common/coding.h"
#include "common/logging.h"

namespace retrasyn {

const char* GridBackendName(GridBackend backend) {
  switch (backend) {
    case GridBackend::kUniform:
      return "uniform";
    case GridBackend::kQuadtree:
      return "quadtree";
  }
  return "unknown";
}

SpatialGrid::SpatialGrid(const BoundingBox& box) : box_(box) {
  RETRASYN_CHECK(box.Width() > 0.0 && box.Height() > 0.0);
}

bool SpatialGrid::AreNeighbors(CellId from, CellId to) const {
  const auto& nbrs = neighbors_[from];
  return std::binary_search(nbrs.begin(), nbrs.end(), to);
}

CellId SpatialGrid::ClampToReachable(CellId from, CellId to) const {
  if (AreNeighbors(from, to)) return to;
  CellId best = from;
  double best_d = Distance(from, to);
  for (CellId nbr : Neighbors(from)) {
    const double d = Distance(nbr, to);
    if (d < best_d) {
      best_d = d;
      best = nbr;
    }
  }
  return best;
}

std::string SpatialGrid::Describe() const {
  std::string out;
  out.push_back(static_cast<char>(backend()));
  PutDouble(box_.min_x, &out);
  PutDouble(box_.min_y, &out);
  PutDouble(box_.max_x, &out);
  PutDouble(box_.max_y, &out);
  DescribePayload(&out);
  return out;
}

}  // namespace retrasyn
