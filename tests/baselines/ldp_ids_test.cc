#include "baselines/ldp_ids.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/grid.h"
#include "stream/random_walk_generator.h"

namespace retrasyn {
namespace {

struct BaselineFixture {
  BaselineFixture(int64_t horizon = 80, uint32_t users = 200)
      : grid(BoundingBox{0.0, 0.0, 1000.0, 1000.0}, 4), states(grid) {
    RandomWalkConfig config;
    config.num_timestamps = horizon;
    config.initial_users = users;
    config.mean_arrivals = users / 20.0;
    config.quit_probability = 0.03;
    Rng rng(11);
    db = GenerateRandomWalkStreams(config, rng);
    feeder = std::make_unique<StreamFeeder>(db, grid, states);
  }

  void Run(LdpIdsEngine& engine) const {
    for (int64_t t = 0; t < feeder->num_timestamps(); ++t) {
      engine.Observe(feeder->Batch(t));
    }
  }

  UniformGrid grid;
  StateSpace states;
  StreamDatabase db;
  std::unique_ptr<StreamFeeder> feeder;
};

LdpIdsConfig MakeConfig(LdpIdsMethod method) {
  LdpIdsConfig config;
  config.epsilon = 1.0;
  config.window = 10;
  config.method = method;
  config.seed = 5;
  return config;
}

class LdpIdsMethodTest : public testing::TestWithParam<LdpIdsMethod> {};

TEST_P(LdpIdsMethodTest, RunsAndProducesSynthetic) {
  const BaselineFixture fx;
  LdpIdsEngine engine(fx.states, MakeConfig(GetParam()));
  fx.Run(engine);
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  EXPECT_GT(syn.streams().size(), 0u);
  EXPECT_GT(engine.num_publications(), 0);
  for (const CellStream& s : syn.streams()) {
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_TRUE(fx.grid.AreNeighbors(s.cells[i - 1], s.cells[i]));
    }
  }
}

TEST_P(LdpIdsMethodTest, FrozenPopulationNeverTerminates) {
  // The adaptation drops enter/quit modeling: one cohort, full horizon.
  const BaselineFixture fx;
  LdpIdsEngine engine(fx.states, MakeConfig(GetParam()));
  fx.Run(engine);
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  ASSERT_GT(syn.streams().size(), 0u);
  const int64_t t0 = syn.streams()[0].enter_time;
  for (const CellStream& s : syn.streams()) {
    EXPECT_EQ(s.enter_time, t0);
    EXPECT_EQ(s.end_time(), fx.feeder->num_timestamps());
  }
}

INSTANTIATE_TEST_SUITE_P(AllMethods, LdpIdsMethodTest,
                         testing::Values(LdpIdsMethod::kLBD,
                                         LdpIdsMethod::kLBA,
                                         LdpIdsMethod::kLPD,
                                         LdpIdsMethod::kLPA),
                         [](const testing::TestParamInfo<LdpIdsMethod>& info) {
                           return LdpIdsMethodName(info.param);
                         });

TEST(LdpIdsBudgetTest, LbdWindowBudgetWithinEpsilon) {
  const BaselineFixture fx;
  const LdpIdsConfig config = MakeConfig(LdpIdsMethod::kLBD);
  LdpIdsEngine engine(fx.states, config);
  fx.Run(engine);
  EXPECT_LE(engine.budget_ledger().MaxWindowSpend(), config.epsilon + 1e-9);
}

TEST(LdpIdsBudgetTest, LbaWindowBudgetWithinEpsilon) {
  const BaselineFixture fx;
  const LdpIdsConfig config = MakeConfig(LdpIdsMethod::kLBA);
  LdpIdsEngine engine(fx.states, config);
  fx.Run(engine);
  EXPECT_LE(engine.budget_ledger().MaxWindowSpend(), config.epsilon + 1e-9);
}

TEST(LdpIdsPopulationTest, NoUserReportsTwicePerWindow) {
  for (LdpIdsMethod method : {LdpIdsMethod::kLPD, LdpIdsMethod::kLPA}) {
    const BaselineFixture fx;
    LdpIdsEngine engine(fx.states, MakeConfig(method));
    fx.Run(engine);
    EXPECT_FALSE(engine.report_tracker().HasViolation())
        << LdpIdsMethodName(method);
    EXPECT_GT(engine.report_tracker().num_reports(), 0);
  }
}

TEST(LdpIdsTest, SteadyStreamPublishesRarely) {
  // A dissimilarity-driven mechanism should approximate most timestamps on a
  // (statistically) stationary stream.
  const BaselineFixture fx(100, 400);
  LdpIdsEngine engine(fx.states, MakeConfig(LdpIdsMethod::kLPD));
  fx.Run(engine);
  EXPECT_LT(engine.num_publications(), 100);
}

TEST(LdpIdsTest, Names) {
  const BaselineFixture fx(10, 20);
  EXPECT_EQ(LdpIdsEngine(fx.states, MakeConfig(LdpIdsMethod::kLBD)).name(),
            "LBD");
  EXPECT_EQ(LdpIdsEngine(fx.states, MakeConfig(LdpIdsMethod::kLPA)).name(),
            "LPA");
}

TEST(LdpIdsTest, DeterministicGivenSeed) {
  const BaselineFixture fx(40, 100);
  auto run_once = [&]() {
    LdpIdsEngine engine(fx.states, MakeConfig(LdpIdsMethod::kLPA));
    for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
      engine.Observe(fx.feeder->Batch(t));
    }
    return engine.SnapshotRelease(fx.feeder->num_timestamps());
  };
  const CellStreamSet a = run_once();
  const CellStreamSet b = run_once();
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells);
  }
}

}  // namespace
}  // namespace retrasyn
