// Uniform K x K geospatial discretization (paper SIII-B), the reference
// SpatialGrid backend. Continuous coordinates are mapped to grid cells; the
// reachability constraint of the mobility model ("transitions between
// adjacent cells") is expressed through the precomputed neighbor lists
// (Moore neighborhood including the cell itself, clipped at the border).

#ifndef RETRASYN_GEO_GRID_H_
#define RETRASYN_GEO_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point.h"
#include "geo/spatial_grid.h"

namespace retrasyn {

class UniformGrid : public SpatialGrid {
 public:
  /// Builds a K x K uniform grid over \p box. Requires k >= 1 and a box with
  /// positive width and height.
  UniformGrid(const BoundingBox& box, uint32_t k);

  uint32_t k() const { return k_; }

  uint32_t Row(CellId c) const { return c / k_; }
  uint32_t Col(CellId c) const { return c % k_; }
  CellId Cell(uint32_t row, uint32_t col) const { return row * k_ + col; }

  GridBackend backend() const override { return GridBackend::kUniform; }
  const UniformGrid* AsUniform() const override { return this; }

  CellId Locate(const Point& p) const override;
  Point CellCenter(CellId c) const override;
  BoundingBox CellBounds(CellId c) const override;

  /// Closed-form Moore-neighborhood test (no list search).
  bool AreNeighbors(CellId from, CellId to) const override;

  /// Chebyshev (L-inf) distance between two cells, in cell units. This is
  /// the minimum number of timestamps a reachability-respecting walk needs.
  uint32_t ChebyshevDistance(CellId a, CellId b) const;

  /// SpatialGrid::Distance == ChebyshevDistance, exactly (integer-valued
  /// doubles, so ClampToReachable through the interface picks the identical
  /// neighbor the pre-interface implementation did).
  double Distance(CellId a, CellId b) const override {
    return static_cast<double>(ChebyshevDistance(a, b));
  }

  std::string ToString() const override;

 protected:
  void DescribePayload(std::string* out) const override;

 private:
  uint32_t k_;
  double cell_width_;
  double cell_height_;
};

}  // namespace retrasyn

#endif  // RETRASYN_GEO_GRID_H_
