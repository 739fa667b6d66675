// The grid comes from RETRASYN_GRID_BACKEND, so the quadtree CI step runs
// every case over variable-degree cells too; no case assumes uniform
// row/col geometry.

#include "core/synthesizer.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "geo/grid_factory.h"

namespace retrasyn {
namespace {

class SynthesizerTest : public testing::Test {
 protected:
  SynthesizerTest()
      : grid_owner_(MakeEnvGrid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 3)),
        grid_(*grid_owner_),
        states_(grid_),
        model_(states_) {}

  // A model where every cell moves uniformly over its neighbors, enters
  // uniformly, and quits with the given per-cell quit mass.
  void FillUniformModel(double quit_mass) {
    std::vector<double> f(states_.size(), 0.0);
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      for (StateId s : states_.MoveStatesFrom(c)) f[s] = 0.1;
      f[states_.EnterIndex(c)] = 0.1;
      f[states_.QuitIndex(c)] = quit_mass;
    }
    model_.ReplaceAll(f);
  }

  SynthesizerConfig DefaultConfig() const {
    SynthesizerConfig config;
    config.lambda = 10.0;
    return config;
  }

  std::unique_ptr<SpatialGrid> grid_owner_;
  const SpatialGrid& grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

TEST_F(SynthesizerTest, InitializeSpawnsTargetCount) {
  FillUniformModel(0.0);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(1);
  EXPECT_FALSE(syn.initialized());
  syn.Initialize(model_, 50, 0, rng);
  EXPECT_TRUE(syn.initialized());
  EXPECT_EQ(syn.num_live(), 50u);
  EXPECT_EQ(syn.total_points(), 50u);
}

TEST_F(SynthesizerTest, SizeAdjustmentTracksTargetExactly) {
  FillUniformModel(0.05);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(2);
  syn.Initialize(model_, 30, 0, rng);
  const uint32_t targets[] = {35, 35, 20, 60, 1, 100};
  int64_t t = 1;
  for (uint32_t target : targets) {
    syn.Step(model_, target, t++, rng);
    EXPECT_EQ(syn.num_live(), target);
  }
}

TEST_F(SynthesizerTest, GeneratedTransitionsRespectAdjacency) {
  FillUniformModel(0.02);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(3);
  syn.Initialize(model_, 40, 0, rng);
  for (int64_t t = 1; t < 30; ++t) syn.Step(model_, 40, t, rng);
  const CellStreamSet out = syn.Snapshot(30);
  for (const CellStream& s : out.streams()) {
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_TRUE(grid_.AreNeighbors(s.cells[i - 1], s.cells[i]));
    }
  }
}

TEST_F(SynthesizerTest, StartCellsFollowEnterDistribution) {
  // Put all entering mass on cell 4; every spawned stream must start there.
  std::vector<double> f(states_.size(), 0.0);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    for (StateId s : states_.MoveStatesFrom(c)) f[s] = 0.1;
  }
  f[states_.EnterIndex(4)] = 1.0;
  model_.ReplaceAll(f);
  Synthesizer syn(states_, DefaultConfig());
  Rng rng(4);
  syn.Initialize(model_, 25, 0, rng);
  const CellStreamSet out = syn.Snapshot(1);
  for (const CellStream& s : out.streams()) {
    EXPECT_EQ(s.cells.front(), 4u);
  }
}

TEST_F(SynthesizerTest, QuitProbabilityGrowsWithLength) {
  // Eq. 8: with quit mass present, longer streams must terminate more often.
  FillUniformModel(0.2);
  SynthesizerConfig config = DefaultConfig();
  config.lambda = 5.0;
  config.use_size_adjustment = false;  // isolate the quit phase
  Synthesizer syn(states_, config);
  Rng rng(5);
  syn.Initialize(model_, 3000, 0, rng);
  std::vector<uint32_t> live_history{syn.num_live()};
  for (int64_t t = 1; t < 12; ++t) {
    syn.Step(model_, 0, t, rng);
    live_history.push_back(syn.num_live());
  }
  // Monotone shrinking population.
  for (size_t i = 1; i < live_history.size(); ++i) {
    EXPECT_LE(live_history[i], live_history[i - 1]);
  }
  // Per-step hazard must grow over time (longer streams -> higher quit).
  const double early_rate =
      1.0 - static_cast<double>(live_history[2]) / live_history[1];
  const double late_rate =
      1.0 - static_cast<double>(live_history[11]) / live_history[10];
  EXPECT_GT(late_rate, early_rate);
}

TEST_F(SynthesizerTest, NoQuitConfigNeverTerminates) {
  FillUniformModel(0.5);  // heavy quit mass, but disabled
  SynthesizerConfig config = DefaultConfig();
  config.use_quit = false;
  config.use_size_adjustment = false;
  Synthesizer syn(states_, config);
  Rng rng(6);
  syn.Initialize(model_, 20, 0, rng);
  for (int64_t t = 1; t < 50; ++t) syn.Step(model_, 3, t, rng);
  EXPECT_EQ(syn.num_live(), 20u);
  const CellStreamSet out = syn.Snapshot(50);
  for (const CellStream& s : out.streams()) {
    EXPECT_EQ(s.length(), 50u);
  }
}

TEST_F(SynthesizerTest, RandomInitSpreadsStartCells) {
  // random_init ignores E even when E is a point mass.
  std::vector<double> f(states_.size(), 0.0);
  f[states_.EnterIndex(0)] = 1.0;
  model_.ReplaceAll(f);
  SynthesizerConfig config = DefaultConfig();
  config.random_init = true;
  Synthesizer syn(states_, config);
  Rng rng(7);
  syn.Initialize(model_, 500, 0, rng);
  const CellStreamSet out = syn.Snapshot(1);
  std::vector<int> starts(grid_.NumCells(), 0);
  for (const CellStream& s : out.streams()) ++starts[s.cells.front()];
  int nonzero = 0;
  for (int c : starts) {
    if (c > 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 5);  // definitely not a point mass
}

TEST_F(SynthesizerTest, ZeroMassModelDwellsInPlace) {
  model_.ReplaceAll(std::vector<double>(states_.size(), 0.0));
  SynthesizerConfig config = DefaultConfig();
  config.use_size_adjustment = false;
  Synthesizer syn(states_, config);
  Rng rng(8);
  syn.Initialize(model_, 10, 0, rng);
  for (int64_t t = 1; t < 5; ++t) syn.Step(model_, 10, t, rng);
  const CellStreamSet out = syn.Snapshot(5);
  for (const CellStream& s : out.streams()) {
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_EQ(s.cells[i], s.cells[0]);  // dwell fallback
    }
  }
}

TEST_F(SynthesizerTest, SurplusTerminationPrefersQuitDistribution) {
  // Quit mass concentrated on the last cell: streams currently there should
  // be terminated first during size adjustment. With Eq. 8 quits on, the
  // race runs over the compacted survivors, so it also pins that their
  // current cells were compacted with them.
  const CellId hot = grid_.NumCells() - 1;
  std::vector<double> f(states_.size(), 0.0);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    f[states_.MoveIndex(c, c)] = 1.0;  // everyone dwells
  }
  f[states_.QuitIndex(hot)] = 1.0;
  f[states_.EnterIndex(0)] = 0.5;
  f[states_.EnterIndex(hot)] = 0.5;
  model_.ReplaceAll(f);
  for (bool use_quit : {false, true}) {
    SCOPED_TRACE(use_quit ? "with Eq. 8 quits" : "size adjustment only");
    SynthesizerConfig config = DefaultConfig();
    config.use_quit = use_quit;
    Synthesizer syn(states_, config);
    Rng rng(10);
    syn.Initialize(model_, 400, 0, rng);
    syn.Step(model_, 250, 1, rng);
    EXPECT_EQ(syn.num_live(), 250u);
    const CellStreamSet out = syn.Snapshot(2);
    size_t terminated_at_hot = 0, terminated_elsewhere = 0;
    for (const CellStream& s : out.streams()) {
      if (s.length() == 1) {  // terminated at t = 1
        if (s.cells.back() == hot) {
          ++terminated_at_hot;
        } else {
          ++terminated_elsewhere;
        }
      }
    }
    EXPECT_EQ(terminated_at_hot, 150u);
    // Only the hot cell carries quit mass, for Eq. 8 and for the race.
    EXPECT_EQ(terminated_elsewhere, 0u);
  }
}

class SynthesizerColumnTest : public SynthesizerTest,
                              public testing::WithParamInterface<int> {
 protected:
  /// LiveDensity() reads the live-cell column; it must equal a recount over
  /// the streams themselves.
  void ExpectColumnMatchesStreams(const Synthesizer& syn,
                                  const std::string& where) {
    std::vector<uint32_t> recount(grid_.NumCells(), 0);
    std::vector<CellStream> live, finished;
    syn.SaveCheckpointState(&live, &finished);
    for (const CellStream& s : live) ++recount[s.cells.back()];
    EXPECT_EQ(syn.LiveDensity(), recount) << where;
  }
};

TEST_P(SynthesizerColumnTest, LiveDensityMatchesRecountThroughEveryReorder) {
  FillUniformModel(0.05);  // quit mass: Eq. 8 terminations every round
  SynthesizerConfig config = DefaultConfig();
  config.num_threads = GetParam();
  // Large enough that 4 threads really run 4 chunks on a shared pool.
  ThreadPool pool(2);
  Synthesizer syn(states_, config);
  syn.SetThreadPool(&pool);
  Rng rng(31);
  syn.Initialize(model_, 10000, 0, rng);
  ExpectColumnMatchesStreams(syn, "after Initialize");

  // Shrinking targets force the size-adjustment victims (swap-erase);
  // growing ones force deficit spawns after the commit.
  const uint32_t targets[] = {10000, 9000, 12000, 12000, 3000, 9000};
  int64_t t = 1;
  size_t finished_before = syn.num_finished();
  for (uint32_t target : targets) {
    syn.Step(model_, target, t, rng);
    EXPECT_EQ(syn.num_live(), target);
    EXPECT_GT(syn.num_finished(), finished_before) << "t=" << t;
    finished_before = syn.num_finished();
    ExpectColumnMatchesStreams(syn, "after step " + std::to_string(t));
    ++t;
  }

  // Restore rebuilds the column from the streams: the restored synthesizer
  // reports the same density and then draws exactly the same rounds.
  Synthesizer restored(states_, config);
  restored.SetThreadPool(&pool);
  std::vector<CellStream> live, finished;
  syn.SaveCheckpointState(&live, &finished);
  restored.Restore(live, finished, syn.total_points(), /*initialized=*/true);
  ExpectColumnMatchesStreams(restored, "after Restore");
  EXPECT_EQ(restored.LiveDensity(), syn.LiveDensity());
  Rng rng_restored = rng;
  for (uint32_t target : {8000u, 11000u}) {
    syn.Step(model_, target, t, rng);
    restored.Step(model_, target, t, rng_restored);
    ExpectColumnMatchesStreams(restored, "restored step " + std::to_string(t));
    ++t;
  }
  const CellStreamSet a = syn.Snapshot(t);
  const CellStreamSet b = restored.Snapshot(t);
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    ASSERT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time);
    ASSERT_EQ(a.streams()[i].cells, b.streams()[i].cells) << "stream " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, SynthesizerColumnTest,
                         testing::Values(1, 4));

}  // namespace
}  // namespace retrasyn
