#include "geo/grid.h"

#include <algorithm>
#include <cstdlib>

#include "common/coding.h"
#include "common/logging.h"

namespace retrasyn {

UniformGrid::UniformGrid(const BoundingBox& box, uint32_t k)
    : SpatialGrid(box), k_(k) {
  RETRASYN_CHECK(k >= 1);
  cell_width_ = box.Width() / k_;
  cell_height_ = box.Height() / k_;
  num_cells_ = k_ * k_;
  neighbors_.resize(NumCells());
  for (CellId c = 0; c < NumCells(); ++c) {
    const int row = static_cast<int>(Row(c));
    const int col = static_cast<int>(Col(c));
    for (int dr = -1; dr <= 1; ++dr) {
      for (int dc = -1; dc <= 1; ++dc) {
        const int nr = row + dr;
        const int nc = col + dc;
        if (nr < 0 || nc < 0 || nr >= static_cast<int>(k_) ||
            nc >= static_cast<int>(k_)) {
          continue;
        }
        neighbors_[c].push_back(Cell(nr, nc));
      }
    }
    std::sort(neighbors_[c].begin(), neighbors_[c].end());
  }
}

CellId UniformGrid::Locate(const Point& p) const {
  const Point q = box_.Clamp(p);
  uint32_t col = static_cast<uint32_t>((q.x - box_.min_x) / cell_width_);
  uint32_t row = static_cast<uint32_t>((q.y - box_.min_y) / cell_height_);
  // The max coordinate lands exactly on the far edge; fold it into the last
  // row/column so Locate is total on the closed box.
  col = std::min(col, k_ - 1);
  row = std::min(row, k_ - 1);
  return Cell(row, col);
}

Point UniformGrid::CellCenter(CellId c) const {
  return Point{box_.min_x + (Col(c) + 0.5) * cell_width_,
               box_.min_y + (Row(c) + 0.5) * cell_height_};
}

BoundingBox UniformGrid::CellBounds(CellId c) const {
  BoundingBox b;
  b.min_x = box_.min_x + Col(c) * cell_width_;
  b.min_y = box_.min_y + Row(c) * cell_height_;
  b.max_x = b.min_x + cell_width_;
  b.max_y = b.min_y + cell_height_;
  return b;
}

bool UniformGrid::AreNeighbors(CellId from, CellId to) const {
  const int dr = static_cast<int>(Row(from)) - static_cast<int>(Row(to));
  const int dc = static_cast<int>(Col(from)) - static_cast<int>(Col(to));
  return std::abs(dr) <= 1 && std::abs(dc) <= 1;
}

uint32_t UniformGrid::ChebyshevDistance(CellId a, CellId b) const {
  const int dr = static_cast<int>(Row(a)) - static_cast<int>(Row(b));
  const int dc = static_cast<int>(Col(a)) - static_cast<int>(Col(b));
  return static_cast<uint32_t>(std::max(std::abs(dr), std::abs(dc)));
}

void UniformGrid::DescribePayload(std::string* out) const {
  PutFixed32(k_, out);
}

std::string UniformGrid::ToString() const {
  return "uniform(" + std::to_string(k_) + "x" + std::to_string(k_) + ")";
}

}  // namespace retrasyn
