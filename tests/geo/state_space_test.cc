#include "geo/grid.h"
#include "geo/state_space.h"

#include <gtest/gtest.h>

namespace retrasyn {
namespace {

BoundingBox UnitBox() { return BoundingBox{0.0, 0.0, 1.0, 1.0}; }

TEST(StateSpaceTest, SizeDecomposition) {
  const UniformGrid grid(UnitBox(), 4);
  const StateSpace states(grid);
  size_t moves = 0;
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    moves += grid.Neighbors(c).size();
  }
  EXPECT_EQ(states.num_move_states(), moves);
  EXPECT_EQ(states.size(), moves + 2 * grid.NumCells());
}

TEST(StateSpaceTest, MoveIndexValidOnlyForNeighbors) {
  const UniformGrid grid(UnitBox(), 4);
  const StateSpace states(grid);
  for (CellId a = 0; a < grid.NumCells(); ++a) {
    for (CellId b = 0; b < grid.NumCells(); ++b) {
      const StateId id = states.MoveIndex(a, b);
      if (grid.AreNeighbors(a, b)) {
        ASSERT_NE(id, kInvalidState);
        EXPECT_LT(id, states.num_move_states());
      } else {
        EXPECT_EQ(id, kInvalidState);
      }
    }
  }
}

TEST(StateSpaceTest, KindPredicatesPartitionTheSpace) {
  const UniformGrid grid(UnitBox(), 3);
  const StateSpace states(grid);
  for (StateId s = 0; s < states.size(); ++s) {
    const int kinds = (states.IsMove(s) ? 1 : 0) + (states.IsEnter(s) ? 1 : 0) +
                      (states.IsQuit(s) ? 1 : 0);
    EXPECT_EQ(kinds, 1) << "state " << s;
  }
}

TEST(StateSpaceTest, EnterQuitIndices) {
  const UniformGrid grid(UnitBox(), 3);
  const StateSpace states(grid);
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    const StateId e = states.EnterIndex(c);
    const StateId q = states.QuitIndex(c);
    EXPECT_TRUE(states.IsEnter(e));
    EXPECT_TRUE(states.IsQuit(q));
    EXPECT_EQ(states.Decode(e),
              (TransitionState{StateKind::kEnter, c, c}));
    EXPECT_EQ(states.Decode(q), (TransitionState{StateKind::kQuit, c, c}));
  }
}

TEST(StateSpaceTest, ToStringFormats) {
  const UniformGrid grid(UnitBox(), 2);
  const StateSpace states(grid);
  EXPECT_EQ(states.ToString(states.MoveIndex(0, 1)), "m(0->1)");
  EXPECT_EQ(states.ToString(states.EnterIndex(2)), "e(2)");
  EXPECT_EQ(states.ToString(states.QuitIndex(3)), "q(3)");
}

TEST(StateSpaceTest, MoveStatesFromMatchesNeighbors) {
  const UniformGrid grid(UnitBox(), 4);
  const StateSpace states(grid);
  for (CellId c = 0; c < grid.NumCells(); ++c) {
    const auto ids = states.MoveStatesFrom(c);
    const auto& nbrs = grid.Neighbors(c);
    ASSERT_EQ(ids.size(), nbrs.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const TransitionState s = states.Decode(ids[i]);
      EXPECT_EQ(s.kind, StateKind::kMove);
      EXPECT_EQ(s.from, c);
      EXPECT_EQ(s.to, nbrs[i]);
    }
  }
}

class StateSpaceSweepTest : public testing::TestWithParam<uint32_t> {};

TEST_P(StateSpaceSweepTest, EncodeDecodeRoundTripForAllStates) {
  const UniformGrid grid(UnitBox(), GetParam());
  const StateSpace states(grid);
  for (StateId s = 0; s < states.size(); ++s) {
    const TransitionState decoded = states.Decode(s);
    EXPECT_EQ(states.Encode(decoded), s) << "state " << s;
  }
}

TEST_P(StateSpaceSweepTest, StateCountIsO9C) {
  const uint32_t k = GetParam();
  const UniformGrid grid(UnitBox(), k);
  const StateSpace states(grid);
  // |S| <= 9|C| + 2|C| = 11|C| (paper SIV-B complexity bound).
  EXPECT_LE(states.size(), 11 * grid.NumCells());
  EXPECT_GE(states.size(), 3 * grid.NumCells());  // >= self-move + enter + quit
}

INSTANTIATE_TEST_SUITE_P(PaperGranularities, StateSpaceSweepTest,
                         testing::Values(1u, 2u, 6u, 10u, 14u, 18u));

}  // namespace
}  // namespace retrasyn
