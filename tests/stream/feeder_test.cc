#include "geo/grid.h"
#include "stream/feeder.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "stream/random_walk_generator.h"

namespace retrasyn {
namespace {

// 2x2 grid over the unit box: cells 0..3, every pair of cells adjacent.
class FeederTest : public testing::Test {
 protected:
  FeederTest()
      : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 2), states_(grid_) {}

  Point CellPoint(CellId c) const { return grid_.CellCenter(c); }

  UniformGrid grid_;
  StateSpace states_;
};

TEST_F(FeederTest, ObservationsPerTimestamp) {
  StreamDatabase db(grid_.box(), 5);
  // User 0: cells 0 -> 1 -> 3 over t = 0..2, then quits (observed at t=3).
  UserStream u0;
  u0.user_id = 0;
  u0.enter_time = 0;
  u0.points = {CellPoint(0), CellPoint(1), CellPoint(3)};
  db.Add(u0).CheckOK();
  // User 1: enters at t=2 at cell 2, survives to the horizon (no quit event).
  UserStream u1;
  u1.user_id = 1;
  u1.enter_time = 2;
  u1.points = {CellPoint(2), CellPoint(2), CellPoint(0)};
  db.Add(u1).CheckOK();

  const StreamFeeder feeder(db, grid_, states_);
  ASSERT_EQ(feeder.num_timestamps(), 5);

  // t = 0: user 0 enters at cell 0.
  {
    const TimestampBatch& b = feeder.Batch(0);
    ASSERT_EQ(b.observations.size(), 1u);
    EXPECT_TRUE(b.observations[0].is_enter);
    EXPECT_EQ(b.observations[0].state, states_.EnterIndex(0));
    EXPECT_EQ(b.num_active, 1u);
  }
  // t = 1: user 0 moves 0 -> 1.
  {
    const TimestampBatch& b = feeder.Batch(1);
    ASSERT_EQ(b.observations.size(), 1u);
    EXPECT_FALSE(b.observations[0].is_enter);
    EXPECT_FALSE(b.observations[0].is_quit);
    EXPECT_EQ(b.observations[0].state, states_.MoveIndex(0, 1));
  }
  // t = 2: user 0 moves 1 -> 3; user 1 enters at cell 2.
  {
    const TimestampBatch& b = feeder.Batch(2);
    ASSERT_EQ(b.observations.size(), 2u);
    EXPECT_EQ(b.num_active, 2u);
  }
  // t = 3: user 0 quits (final location cell 3); user 1 dwells 2 -> 2.
  {
    const TimestampBatch& b = feeder.Batch(3);
    ASSERT_EQ(b.observations.size(), 2u);
    bool saw_quit = false, saw_move = false;
    for (const auto& obs : b.observations) {
      if (obs.is_quit) {
        saw_quit = true;
        EXPECT_EQ(obs.state, states_.QuitIndex(3));
        EXPECT_EQ(obs.user_index, 0u);
      } else {
        saw_move = true;
        EXPECT_EQ(obs.state, states_.MoveIndex(2, 2));
      }
    }
    EXPECT_TRUE(saw_quit);
    EXPECT_TRUE(saw_move);
    EXPECT_EQ(b.num_active, 1u);
  }
  // t = 4: user 1 moves 2 -> 0; no quit for user 1 (horizon end).
  {
    const TimestampBatch& b = feeder.Batch(4);
    ASSERT_EQ(b.observations.size(), 1u);
    EXPECT_EQ(b.observations[0].state, states_.MoveIndex(2, 0));
  }
}

TEST_F(FeederTest, CellStreamsMatchDiscretization) {
  StreamDatabase db(grid_.box(), 3);
  UserStream u;
  u.user_id = 0;
  u.enter_time = 0;
  u.points = {CellPoint(1), CellPoint(3), CellPoint(2)};
  db.Add(u).CheckOK();
  const StreamFeeder feeder(db, grid_, states_);
  const CellStreamSet& cells = feeder.cell_streams();
  ASSERT_EQ(cells.streams().size(), 1u);
  EXPECT_EQ(cells.streams()[0].cells, (std::vector<CellId>{1, 3, 2}));
}

TEST(FeederClampTest, NonAdjacentMovementsAreClamped) {
  // 5x5 grid; a jump from cell (0,0) to (0,4) violates adjacency and must be
  // clamped to a neighbor of the source.
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 5);
  const StateSpace states(grid);
  StreamDatabase db(grid.box(), 2);
  UserStream u;
  u.user_id = 0;
  u.enter_time = 0;
  u.points = {grid.CellCenter(grid.Cell(0, 0)),
              grid.CellCenter(grid.Cell(0, 4))};
  db.Add(u).CheckOK();
  const StreamFeeder feeder(db, grid, states);
  const TimestampBatch& b = feeder.Batch(1);
  ASSERT_EQ(b.observations.size(), 1u);
  ASSERT_NE(b.observations[0].state, kInvalidState);
  const TransitionState s = states.Decode(b.observations[0].state);
  EXPECT_EQ(s.kind, StateKind::kMove);
  EXPECT_EQ(s.from, grid.Cell(0, 0));
  EXPECT_TRUE(grid.AreNeighbors(s.from, s.to));
  // Clamped toward the target: the chosen neighbor is (0,1).
  EXPECT_EQ(s.to, grid.Cell(0, 1));
  // The ground-truth cell stream reflects the clamp too.
  EXPECT_EQ(feeder.cell_streams().streams()[0].cells[1], grid.Cell(0, 1));
}

TEST(FeederStressTest, EveryObservationEncodable) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1000.0, 1000.0}, 6);
  const StateSpace states(grid);
  Rng rng(5);
  RandomWalkConfig config;
  config.num_timestamps = 40;
  config.initial_users = 50;
  const StreamDatabase db = GenerateRandomWalkStreams(config, rng);
  const StreamFeeder feeder(db, grid, states);
  size_t total_obs = 0;
  for (int64_t t = 0; t < feeder.num_timestamps(); ++t) {
    for (const auto& obs : feeder.Batch(t).observations) {
      ASSERT_NE(obs.state, kInvalidState);
      ASSERT_LT(obs.state, states.size());
      ++total_obs;
    }
    EXPECT_EQ(feeder.Batch(t).num_active, db.ActiveCount(t));
  }
  // points + quit events, quits = streams that end before the horizon.
  size_t expected_quits = 0;
  for (const auto& s : db.streams()) {
    if (s.end_time() < db.num_timestamps()) ++expected_quits;
  }
  EXPECT_EQ(total_obs, db.TotalPoints() + expected_quits);
}

}  // namespace
}  // namespace retrasyn
