// The pluggable spatial-index seam: every consumer of the discretization —
// state space, mobility model, sampler cache, engine, feeder, ingest
// validation, release server, metrics, durability fingerprint — programs
// against this interface, so alternate decompositions (the density-adaptive
// quadtree of quadtree_grid.h, road-constrained masks, ...) drop in without
// touching the layers above.
//
// Contract every backend must honor:
//  * Cells are dense ids [0, NumCells()). The id assignment is part of the
//    protocol surface (LDP oracles encode against the derived state space),
//    so construction must be deterministic for identical inputs.
//  * Locate is total on the plane: out-of-box points clamp to a border cell,
//    and every point inside CellBounds(c) locates to c (ties on shared cell
//    edges resolve to exactly one owner).
//  * Neighbors(c) is the reachability set of c — sorted ascending, deduped,
//    and including c itself — precomputed at construction so the synthesis
//    hot path (alias tables indexed parallel to these lists) samples in O(1)
//    per point with no virtual dispatch and no allocation.
//  * AreNeighbors(a, b) == (b in Neighbors(a)) and is symmetric.
//  * Distance is a backend-defined cell-units metric generalizing the
//    uniform grid's Chebyshev distance: Distance(a, a) == 0, symmetric, and
//    Distance(a, b) == 0 for distinct cells only when they are neighbors.
//    ClampToReachable minimizes it over Neighbors(from), so it determines
//    how non-adjacent movement reports are folded onto the reachability
//    constraint — both the batch feeder and the live ingest session clamp
//    through this one implementation.
//  * Describe() is the canonical serialized identity of the discretization:
//    backend kind + bounding box + every structural parameter (for the
//    quadtree, the full split structure). Two grids with equal Describe()
//    bytes behave identically; the journal/checkpoint deployment fingerprint
//    hashes these bytes so recovery under a different grid is refused loudly
//    instead of silently diverging.

#ifndef RETRASYN_GEO_SPATIAL_GRID_H_
#define RETRASYN_GEO_SPATIAL_GRID_H_

#include <cstdint>
#include <string>
#include <vector>

#include "geo/point.h"

namespace retrasyn {

using CellId = uint32_t;

class UniformGrid;

/// \brief Spatial-index backend kind; the leading byte of Describe().
enum class GridBackend : uint8_t {
  kUniform = 0,   ///< fixed K x K discretization (paper SIII-B)
  kQuadtree = 1,  ///< density-adaptive quadtree (LDPTrace lineage)
};

const char* GridBackendName(GridBackend backend);

class SpatialGrid {
 public:
  virtual ~SpatialGrid() = default;

  SpatialGrid(const SpatialGrid&) = delete;
  SpatialGrid& operator=(const SpatialGrid&) = delete;

  /// Number of cells |C|; cell ids are dense in [0, NumCells()).
  uint32_t NumCells() const { return num_cells_; }

  /// The continuous region the discretization covers.
  const BoundingBox& box() const { return box_; }

  virtual GridBackend backend() const = 0;

  /// The uniform-grid view of this backend, or nullptr. Row/column-indexed
  /// consumers (2D prefix sums, RangeQuery rectangles) only exist on the
  /// uniform lattice; they gate on this instead of assuming it.
  virtual const UniformGrid* AsUniform() const { return nullptr; }

  /// Maps a continuous point to its cell; points outside the box are clamped
  /// to the nearest border cell.
  virtual CellId Locate(const Point& p) const = 0;

  /// Center of a cell in continuous coordinates.
  virtual Point CellCenter(CellId c) const = 0;

  /// Bounding box of a cell.
  virtual BoundingBox CellBounds(CellId c) const = 0;

  /// Reachability set of \p c including \p c itself, ascending, deduped.
  /// Precomputed; never allocates, never dispatches virtually — hot-path
  /// safe for any backend.
  const std::vector<CellId>& Neighbors(CellId c) const {
    return neighbors_[c];
  }

  /// True when the movement transition from->to satisfies the reachability
  /// constraint, i.e. \p to is in Neighbors(\p from). Symmetric. The default
  /// binary-searches the (sorted, <= few dozen entries) neighbor list;
  /// backends with a closed form override it.
  virtual bool AreNeighbors(CellId from, CellId to) const;

  /// Cell-units distance generalizing the uniform grid's Chebyshev metric
  /// (see the contract above). Only comparisons of exact values matter
  /// downstream, so backends must compute it deterministically.
  virtual double Distance(CellId a, CellId b) const = 0;

  /// Clamps a movement destination to the reachability constraint: returns
  /// \p to when it is a neighbor of \p from, else the neighbor of \p from
  /// closest under Distance (first in ascending cell order on ties). The
  /// batch feeder and the streaming ingestion session both clamp through
  /// this — they must clamp identically for the replayed and live paths to
  /// encode the same transition states.
  CellId ClampToReachable(CellId from, CellId to) const;

  /// Canonical serialized identity: backend byte, bounding box (raw IEEE-754
  /// little-endian), then the backend's structural payload, all encoded with
  /// common/coding.h (integers as fixed32). Stable across processes and
  /// platforms; hashed into the deployment fingerprint and round-tripped
  /// verbatim by the checkpoint codec.
  std::string Describe() const;

  /// Human-readable one-liner for logs and error messages.
  virtual std::string ToString() const = 0;

 protected:
  /// \p box must have positive width and height (checked).
  explicit SpatialGrid(const BoundingBox& box);

  /// Appends the backend's structural parameters to the Describe() blob.
  virtual void DescribePayload(std::string* out) const = 0;

  BoundingBox box_;
  uint32_t num_cells_ = 0;
  /// Per-cell reachability lists; derived classes fill these at construction
  /// (sorted ascending, deduped, self-inclusive).
  std::vector<std::vector<CellId>> neighbors_;
};

}  // namespace retrasyn

#endif  // RETRASYN_GEO_SPATIAL_GRID_H_
