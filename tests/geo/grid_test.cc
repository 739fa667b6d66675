#include "geo/grid.h"

#include <gtest/gtest.h>

namespace retrasyn {
namespace {

BoundingBox UnitBox() { return BoundingBox{0.0, 0.0, 1.0, 1.0}; }

TEST(BoundingBoxTest, ContainsAndClamp) {
  BoundingBox box{0.0, 0.0, 10.0, 5.0};
  EXPECT_TRUE(box.Contains(Point{5.0, 2.5}));
  EXPECT_TRUE(box.Contains(Point{0.0, 0.0}));
  EXPECT_FALSE(box.Contains(Point{10.1, 2.0}));
  const Point clamped = box.Clamp(Point{-3.0, 7.0});
  EXPECT_DOUBLE_EQ(clamped.x, 0.0);
  EXPECT_DOUBLE_EQ(clamped.y, 5.0);
}

TEST(BoundingBoxTest, Extend) {
  BoundingBox box{1.0, 1.0, 2.0, 2.0};
  box.Extend(Point{0.0, 3.0});
  EXPECT_DOUBLE_EQ(box.min_x, 0.0);
  EXPECT_DOUBLE_EQ(box.max_y, 3.0);
  EXPECT_DOUBLE_EQ(box.max_x, 2.0);
}

TEST(GridTest, LocateCenterOfEachCell) {
  const UniformGrid grid(UnitBox(), 4);
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    EXPECT_EQ(grid.Locate(grid.CellCenter(c)), c);
  }
}

TEST(GridTest, LocateBoundaryPoints) {
  const UniformGrid grid(UnitBox(), 4);
  // The far corner folds into the last cell.
  EXPECT_EQ(grid.Locate(Point{1.0, 1.0}), grid.Cell(3, 3));
  EXPECT_EQ(grid.Locate(Point{0.0, 0.0}), grid.Cell(0, 0));
  // Out-of-box points clamp to border cells.
  EXPECT_EQ(grid.Locate(Point{-5.0, 0.5}), grid.Cell(2, 0));
  EXPECT_EQ(grid.Locate(Point{2.0, 2.0}), grid.Cell(3, 3));
}

TEST(GridTest, NeighborCountsByPosition) {
  const UniformGrid grid(UnitBox(), 5);
  // Corners have 4 neighbors (incl. self), edges 6, interior 9.
  EXPECT_EQ(grid.Neighbors(grid.Cell(0, 0)).size(), 4u);
  EXPECT_EQ(grid.Neighbors(grid.Cell(0, 4)).size(), 4u);
  EXPECT_EQ(grid.Neighbors(grid.Cell(4, 0)).size(), 4u);
  EXPECT_EQ(grid.Neighbors(grid.Cell(4, 4)).size(), 4u);
  EXPECT_EQ(grid.Neighbors(grid.Cell(0, 2)).size(), 6u);
  EXPECT_EQ(grid.Neighbors(grid.Cell(2, 0)).size(), 6u);
  EXPECT_EQ(grid.Neighbors(grid.Cell(2, 2)).size(), 9u);
}

TEST(GridTest, NeighborsIncludeSelfAndAreSorted) {
  const UniformGrid grid(UnitBox(), 6);
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    const auto& nbrs = grid.Neighbors(c);
    bool has_self = false;
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (nbrs[i] == c) has_self = true;
      if (i > 0) {
        EXPECT_LT(nbrs[i - 1], nbrs[i]);
      }
    }
    EXPECT_TRUE(has_self);
  }
}

TEST(GridTest, AreNeighborsMatchesNeighborLists) {
  const UniformGrid grid(UnitBox(), 5);
  for (CellId a = 0; a < grid.NumCells(); ++a) {
    for (CellId b = 0; b < grid.NumCells(); ++b) {
      const auto& nbrs = grid.Neighbors(a);
      const bool in_list =
          std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
      EXPECT_EQ(grid.AreNeighbors(a, b), in_list)
          << "a=" << a << " b=" << b;
    }
  }
}

TEST(GridTest, CellBoundsTileTheBox) {
  const UniformGrid grid(BoundingBox{-2.0, 3.0, 6.0, 7.0}, 4);
  double area = 0.0;
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    const BoundingBox b = grid.CellBounds(c);
    area += b.Width() * b.Height();
    EXPECT_TRUE(grid.box().Contains(Point{b.min_x, b.min_y}));
  }
  EXPECT_NEAR(area, grid.box().Width() * grid.box().Height(), 1e-9);
}

TEST(GridTest, ChebyshevDistance) {
  const UniformGrid grid(UnitBox(), 8);
  EXPECT_EQ(grid.ChebyshevDistance(grid.Cell(0, 0), grid.Cell(0, 0)), 0u);
  EXPECT_EQ(grid.ChebyshevDistance(grid.Cell(0, 0), grid.Cell(1, 1)), 1u);
  EXPECT_EQ(grid.ChebyshevDistance(grid.Cell(2, 3), grid.Cell(7, 1)), 5u);
}

TEST(GridTest, SingleCellGrid) {
  const UniformGrid grid(UnitBox(), 1);
  EXPECT_EQ(grid.NumCells(), 1u);
  EXPECT_EQ(grid.Neighbors(0).size(), 1u);
  EXPECT_EQ(grid.Locate(Point{0.5, 0.5}), 0u);
}

class GridSweepTest : public testing::TestWithParam<uint32_t> {};

TEST_P(GridSweepTest, RowColRoundTrip) {
  const uint32_t k = GetParam();
  const UniformGrid grid(UnitBox(), k);
  EXPECT_EQ(grid.NumCells(), k * k);
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    EXPECT_EQ(grid.Cell(grid.Row(c), grid.Col(c)), c);
    EXPECT_LT(grid.Row(c), k);
    EXPECT_LT(grid.Col(c), k);
  }
}

TEST_P(GridSweepTest, TotalNeighborCountFormula) {
  const uint32_t k = GetParam();
  const UniformGrid grid(UnitBox(), k);
  size_t total = 0;
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    total += grid.Neighbors(c).size();
  }
  // 9 per interior, 6 per border edge, 4 per corner.
  size_t expected;
  if (k == 1) {
    expected = 1;
  } else {
    const size_t interior = (k - 2) * (k - 2);
    const size_t edges = 4 * (k - 2);
    expected = 9 * interior + 6 * edges + 4 * 4;
  }
  EXPECT_EQ(total, expected);
}

INSTANTIATE_TEST_SUITE_P(PaperGranularities, GridSweepTest,
                         testing::Values(1u, 2u, 6u, 10u, 14u, 18u));

}  // namespace
}  // namespace retrasyn
