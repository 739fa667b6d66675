#include "geo/quadtree_grid.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "common/coding.h"
#include "common/logging.h"

namespace retrasyn {

namespace {

// Exact area-weighted integral of the piecewise-constant density field over a
// normalized sub-rectangle of the unit square. Probe cells partially covered
// by the rectangle contribute their overlap fraction, so node masses are
// additive: a node's mass equals the sum of its four children's, whatever the
// probe lattice resolution.
class DensityField {
 public:
  explicit DensityField(const DensitySnapshot& density) : k_(density.k) {
    counts_.reserve(density.counts.size());
    for (double c : density.counts) {
      counts_.push_back(std::max(0.0, c));  // noisy counts may be negative
    }
  }

  double MassInRect(double nx0, double ny0, double nx1, double ny1) const {
    const double gx0 = nx0 * k_;
    const double gy0 = ny0 * k_;
    const double gx1 = nx1 * k_;
    const double gy1 = ny1 * k_;
    const uint32_t ix0 = static_cast<uint32_t>(
        std::clamp(std::floor(gx0), 0.0, static_cast<double>(k_ - 1)));
    const uint32_t iy0 = static_cast<uint32_t>(
        std::clamp(std::floor(gy0), 0.0, static_cast<double>(k_ - 1)));
    const uint32_t ix1 = static_cast<uint32_t>(
        std::clamp(std::ceil(gx1), 1.0, static_cast<double>(k_)));
    const uint32_t iy1 = static_cast<uint32_t>(
        std::clamp(std::ceil(gy1), 1.0, static_cast<double>(k_)));
    double mass = 0.0;
    for (uint32_t iy = iy0; iy < iy1; ++iy) {
      const double hy = std::min(gy1, static_cast<double>(iy + 1)) -
                        std::max(gy0, static_cast<double>(iy));
      if (hy <= 0.0) continue;
      for (uint32_t ix = ix0; ix < ix1; ++ix) {
        const double wx = std::min(gx1, static_cast<double>(ix + 1)) -
                          std::max(gx0, static_cast<double>(ix));
        if (wx <= 0.0) continue;
        mass += counts_[iy * k_ + ix] * wx * hy;
      }
    }
    return mass;
  }

  /// Mass of the node (depth, ix, iy) in the dyadic hierarchy.
  double NodeMass(uint32_t depth, uint32_t ix, uint32_t iy) const {
    const double inv = 1.0 / static_cast<double>(1u << depth);
    return MassInRect(ix * inv, iy * inv, (ix + 1) * inv, (iy + 1) * inv);
  }

 private:
  uint32_t k_;
  std::vector<double> counts_;
};

}  // namespace

Status QuadtreeConfig::Validate() const {
  if (max_depth < 1 || max_depth > kMaxDepth) {
    return Status::InvalidArgument("quadtree max_depth must be in [1, " +
                                   std::to_string(kMaxDepth) + "], got " +
                                   std::to_string(max_depth));
  }
  if (!(split_threshold >= 0.0) || !std::isfinite(split_threshold)) {
    return Status::InvalidArgument(
        "quadtree split_threshold must be finite and >= 0");
  }
  return Status::OK();
}

Status DensitySnapshot::Validate() const {
  if (k < 1) {
    return Status::InvalidArgument("density snapshot k must be >= 1");
  }
  if (counts.size() != static_cast<size_t>(k) * k) {
    return Status::InvalidArgument(
        "density snapshot expects " + std::to_string(uint64_t{k} * k) +
        " counts, got " + std::to_string(counts.size()));
  }
  for (double c : counts) {
    if (!std::isfinite(c)) {
      return Status::InvalidArgument("density snapshot counts must be finite");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<QuadtreeGrid>> QuadtreeGrid::Build(
    const BoundingBox& box, const DensitySnapshot& density,
    const QuadtreeConfig& config) {
  RETRASYN_RETURN_NOT_OK(config.Validate());
  RETRASYN_RETURN_NOT_OK(density.Validate());
  if (!(box.Width() > 0.0) || !(box.Height() > 0.0)) {
    return Status::InvalidArgument("quadtree box must have positive extent");
  }

  const DensityField field(density);
  std::unique_ptr<QuadtreeGrid> grid(new QuadtreeGrid(box, config.max_depth));
  grid->nodes_.push_back(Node{0, 0, 0, -1, 0, field.NodeMass(0, 0, 0)});

  // Iterative expansion; the four children of a split are stored contiguously
  // so a single child index suffices. Traversal order here does not matter —
  // leaf ids come from the pre-order pass in Finalize().
  std::vector<size_t> pending{0};
  while (!pending.empty()) {
    const size_t i = pending.back();
    pending.pop_back();
    const Node n = grid->nodes_[i];  // copy: the vector reallocates below
    if (n.depth >= config.max_depth || !(n.mass > config.split_threshold)) {
      continue;
    }
    grid->nodes_[i].child = static_cast<int32_t>(grid->nodes_.size());
    for (uint32_t dy = 0; dy < 2; ++dy) {
      for (uint32_t dx = 0; dx < 2; ++dx) {
        const uint32_t cx = n.ix * 2 + dx;
        const uint32_t cy = n.iy * 2 + dy;
        pending.push_back(grid->nodes_.size());
        grid->nodes_.push_back(
            Node{n.depth + 1, cx, cy, -1, 0, field.NodeMass(n.depth + 1, cx, cy)});
      }
    }
  }

  // Merge sibling sets that are all empty leaves back into their parent.
  // Children are always created after their parent, so one reverse sweep
  // cascades merges bottom-up.
  for (size_t i = grid->nodes_.size(); i-- > 0;) {
    const int32_t child = grid->nodes_[i].child;
    if (child < 0) continue;
    bool all_empty = true;
    for (int32_t j = 0; j < 4; ++j) {
      const Node& c = grid->nodes_[static_cast<size_t>(child + j)];
      if (c.child >= 0 || c.mass > 0.0) {
        all_empty = false;
        break;
      }
    }
    if (all_empty) grid->nodes_[i].child = -1;
  }

  grid->Finalize();
  return grid;
}

Result<std::unique_ptr<QuadtreeGrid>> QuadtreeGrid::WithTargetLeaves(
    const BoundingBox& box, const DensitySnapshot& density,
    uint32_t target_leaves, uint32_t max_depth) {
  QuadtreeConfig probe;
  probe.max_depth = max_depth;
  RETRASYN_RETURN_NOT_OK(probe.Validate());
  RETRASYN_RETURN_NOT_OK(density.Validate());
  if (!(box.Width() > 0.0) || !(box.Height() > 0.0)) {
    return Status::InvalidArgument("quadtree box must have positive extent");
  }
  if (target_leaves < 1) {
    return Status::InvalidArgument("target_leaves must be >= 1");
  }

  const DensityField field(density);
  std::unique_ptr<QuadtreeGrid> grid(new QuadtreeGrid(box, max_depth));
  grid->nodes_.push_back(Node{0, 0, 0, -1, 0, field.NodeMass(0, 0, 0)});
  uint32_t leaves = 1;

  while (leaves + 3 <= target_leaves) {
    // Highest-mass splittable leaf, lowest node index on ties; zero-mass
    // leaves therefore split only once every massy region is exhausted.
    size_t best = grid->nodes_.size();
    double best_mass = -1.0;
    for (size_t i = 0; i < grid->nodes_.size(); ++i) {
      const Node& n = grid->nodes_[i];
      if (n.child >= 0 || n.depth >= max_depth) continue;
      if (n.mass > best_mass) {
        best_mass = n.mass;
        best = i;
      }
    }
    if (best == grid->nodes_.size()) break;  // everything at max depth
    const Node n = grid->nodes_[best];
    grid->nodes_[best].child = static_cast<int32_t>(grid->nodes_.size());
    for (uint32_t dy = 0; dy < 2; ++dy) {
      for (uint32_t dx = 0; dx < 2; ++dx) {
        const uint32_t cx = n.ix * 2 + dx;
        const uint32_t cy = n.iy * 2 + dy;
        grid->nodes_.push_back(
            Node{n.depth + 1, cx, cy, -1, 0, field.NodeMass(n.depth + 1, cx, cy)});
      }
    }
    leaves += 3;
  }

  grid->Finalize();
  return grid;
}

void QuadtreeGrid::Finalize() {
  // Pre-order leaf numbering (children row-major in (y, x)): the CellId
  // assignment is a pure function of the split structure.
  leaves_.clear();
  leaf_node_.clear();
  std::vector<size_t> stack{0};
  // Explicit stack preserving recursive pre-order: push children reversed.
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    Node& n = nodes_[i];
    if (n.child >= 0) {
      for (int32_t j = 3; j >= 0; --j) {
        stack.push_back(static_cast<size_t>(n.child + j));
      }
      continue;
    }
    n.leaf = static_cast<CellId>(leaves_.size());
    const uint32_t span = 1u << (max_depth_ - n.depth);
    leaves_.push_back(LeafRect{n.ix * span, n.iy * span, span});
    leaf_node_.push_back(static_cast<uint32_t>(i));
  }
  num_cells_ = static_cast<uint32_t>(leaves_.size());

  // Adjacency: two leaves are neighbors iff their closed rectangles touch
  // (edge or corner). Walk the one-lattice-cell ring around each leaf and
  // resolve each ring cell to its owning leaf with an O(depth) tree descent;
  // every touching leaf owns at least one ring cell.
  const uint32_t res = 1u << max_depth_;
  auto leaf_at = [&](uint32_t lx, uint32_t ly) -> CellId {
    size_t i = 0;
    while (nodes_[i].child >= 0) {
      const uint32_t d = nodes_[i].depth;
      const uint32_t dx = (lx >> (max_depth_ - d - 1)) & 1u;
      const uint32_t dy = (ly >> (max_depth_ - d - 1)) & 1u;
      i = static_cast<size_t>(nodes_[i].child + static_cast<int32_t>(dy * 2 + dx));
    }
    return nodes_[i].leaf;
  };

  neighbors_.assign(num_cells_, {});
  std::vector<CellId> ring;
  for (CellId c = 0; c < num_cells_; ++c) {
    const LeafRect& r = leaves_[c];
    ring.clear();
    ring.push_back(c);  // reachability sets are self-inclusive
    const int64_t x_lo = static_cast<int64_t>(r.x0) - 1;
    const int64_t x_hi = static_cast<int64_t>(r.x0) + r.span;
    const int64_t y_lo = static_cast<int64_t>(r.y0) - 1;
    const int64_t y_hi = static_cast<int64_t>(r.y0) + r.span;
    for (int64_t y = y_lo; y <= y_hi; ++y) {
      if (y < 0 || y >= res) continue;
      for (int64_t x = x_lo; x <= x_hi; ++x) {
        if (x < 0 || x >= res) continue;
        const bool on_ring = (x == x_lo || x == x_hi || y == y_lo || y == y_hi);
        if (!on_ring) continue;
        ring.push_back(leaf_at(static_cast<uint32_t>(x), static_cast<uint32_t>(y)));
      }
    }
    std::sort(ring.begin(), ring.end());
    ring.erase(std::unique(ring.begin(), ring.end()), ring.end());
    neighbors_[c] = ring;
  }
}

CellId QuadtreeGrid::Locate(const Point& p) const {
  const Point q = box_.Clamp(p);
  const uint32_t res = 1u << max_depth_;
  uint32_t lx = static_cast<uint32_t>((q.x - box_.min_x) / box_.Width() * res);
  uint32_t ly = static_cast<uint32_t>((q.y - box_.min_y) / box_.Height() * res);
  // The max coordinate lands exactly on the far edge; fold it inward so
  // Locate is total on the closed box.
  lx = std::min(lx, res - 1);
  ly = std::min(ly, res - 1);
  size_t i = 0;
  while (nodes_[i].child >= 0) {
    const uint32_t d = nodes_[i].depth;
    const uint32_t dx = (lx >> (max_depth_ - d - 1)) & 1u;
    const uint32_t dy = (ly >> (max_depth_ - d - 1)) & 1u;
    i = static_cast<size_t>(nodes_[i].child + static_cast<int32_t>(dy * 2 + dx));
  }
  return nodes_[i].leaf;
}

Point QuadtreeGrid::CellCenter(CellId c) const {
  const LeafRect& r = leaves_[c];
  const double res = static_cast<double>(1u << max_depth_);
  return Point{box_.min_x + (r.x0 + r.span * 0.5) / res * box_.Width(),
               box_.min_y + (r.y0 + r.span * 0.5) / res * box_.Height()};
}

BoundingBox QuadtreeGrid::CellBounds(CellId c) const {
  const LeafRect& r = leaves_[c];
  const double res = static_cast<double>(1u << max_depth_);
  BoundingBox b;
  b.min_x = box_.min_x + r.x0 / res * box_.Width();
  b.min_y = box_.min_y + r.y0 / res * box_.Height();
  b.max_x = box_.min_x + (r.x0 + r.span) / res * box_.Width();
  b.max_y = box_.min_y + (r.y0 + r.span) / res * box_.Height();
  return b;
}

double QuadtreeGrid::Distance(CellId a, CellId b) const {
  // Chebyshev gap between the two lattice rectangles, in finest-lattice
  // units: zero exactly when the closed rectangles touch (== neighbors), and
  // integer-valued, so downstream comparisons are exact.
  const LeafRect& ra = leaves_[a];
  const LeafRect& rb = leaves_[b];
  const int64_t gx = std::max<int64_t>(
      {0,
       static_cast<int64_t>(ra.x0) - (static_cast<int64_t>(rb.x0) + rb.span),
       static_cast<int64_t>(rb.x0) - (static_cast<int64_t>(ra.x0) + ra.span)});
  const int64_t gy = std::max<int64_t>(
      {0,
       static_cast<int64_t>(ra.y0) - (static_cast<int64_t>(rb.y0) + rb.span),
       static_cast<int64_t>(rb.y0) - (static_cast<int64_t>(ra.y0) + ra.span)});
  return static_cast<double>(std::max(gx, gy));
}

uint32_t QuadtreeGrid::LeafDepth(CellId c) const {
  return nodes_[leaf_node_[c]].depth;
}

void QuadtreeGrid::DescribePayload(std::string* out) const {
  // max_depth, leaf count, then the pre-order split structure as a bitstring
  // (1 = internal, 0 = leaf), which pins the CellId assignment exactly.
  PutFixed32(max_depth_, out);
  PutFixed32(num_cells_, out);
  std::vector<bool> bits;
  bits.reserve(nodes_.size());
  std::vector<size_t> stack{0};
  while (!stack.empty()) {
    const size_t i = stack.back();
    stack.pop_back();
    const Node& n = nodes_[i];
    bits.push_back(n.child >= 0);
    if (n.child >= 0) {
      for (int32_t j = 3; j >= 0; --j) {
        stack.push_back(static_cast<size_t>(n.child + j));
      }
    }
  }
  PutFixed32(static_cast<uint32_t>(bits.size()), out);
  uint8_t acc = 0;
  int filled = 0;
  for (bool b : bits) {
    acc |= static_cast<uint8_t>(b ? 1u : 0u) << filled;
    if (++filled == 8) {
      out->push_back(static_cast<char>(acc));
      acc = 0;
      filled = 0;
    }
  }
  if (filled > 0) out->push_back(static_cast<char>(acc));
}

std::string QuadtreeGrid::ToString() const {
  return "quadtree(depth<=" + std::to_string(max_depth_) + ", " +
         std::to_string(num_cells_) + " leaves)";
}

}  // namespace retrasyn
