// Tests for engine configuration surfaces added on top of Algorithm 1:
// estimate post-processing, the adaptive probe floor, and the live synthetic
// view used by real-time consumers.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/engine.h"
#include "geo/grid.h"
#include "stream/hotspot_generator.h"
#include "stream/random_walk_generator.h"

namespace retrasyn {
namespace {

struct Fixture {
  Fixture() : grid(BoundingBox{0.0, 0.0, 1000.0, 1000.0}, 4), states(grid) {
    RandomWalkConfig config;
    config.num_timestamps = 50;
    config.initial_users = 200;
    config.mean_arrivals = 12.0;
    Rng rng(21);
    db = GenerateRandomWalkStreams(config, rng);
    feeder = std::make_unique<StreamFeeder>(db, grid, states);
  }
  UniformGrid grid;
  StateSpace states;
  StreamDatabase db;
  std::unique_ptr<StreamFeeder> feeder;
};

RetraSynConfig BaseConfig() {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 10;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 12.0;
  config.seed = 4;
  return config;
}

TEST(EngineConfigTest, PostprocessModesAllRun) {
  const Fixture fx;
  for (Postprocess pp :
       {Postprocess::kNone, Postprocess::kClip, Postprocess::kNormSub}) {
    RetraSynConfig config = BaseConfig();
    config.postprocess = pp;
    RetraSynEngine engine(fx.states, config);
    for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
      engine.Observe(fx.feeder->Batch(t));
    }
    const CellStreamSet syn =
        engine.SnapshotRelease(fx.feeder->num_timestamps());
    EXPECT_GT(syn.TotalPoints(), 0u) << static_cast<int>(pp);
  }
}

TEST(EngineConfigTest, NormSubFullReplaceModelMassIsOne) {
  // Under norm-sub every collected round's vector sums to 1; with full
  // replacement (AllUpdate) the model therefore carries exactly unit mass
  // after every collection. (With DMU, states from different rounds mix and
  // the global mass is no longer constrained.)
  const Fixture fx;
  RetraSynConfig config = BaseConfig();
  config.postprocess = Postprocess::kNormSub;
  config.use_dmu = false;
  RetraSynEngine engine(fx.states, config);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
    if (!engine.model().initialized()) continue;
    double mass = 0.0;
    for (double f : engine.model().frequencies()) mass += f;
    EXPECT_NEAR(mass, 1.0, 1e-6) << "t=" << t;
  }
}

TEST(EngineConfigTest, ClipModelIsNonNegative) {
  const Fixture fx;
  RetraSynConfig config = BaseConfig();
  config.postprocess = Postprocess::kClip;
  RetraSynEngine engine(fx.states, config);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
  }
  for (double f : engine.model().frequencies()) {
    EXPECT_GE(f, 0.0);
  }
}

TEST(EngineConfigTest, ZeroMinPortionCanStarve) {
  // With the probe floor disabled, the adaptive strategy may legally stop
  // collecting; the engine must stay well-defined (model frozen, synthesis
  // continues).
  const Fixture fx;
  RetraSynConfig config = BaseConfig();
  config.allocation.min_portion = 0.0;
  RetraSynEngine engine(fx.states, config);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
  }
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  EXPECT_GT(syn.streams().size(), 0u);
  EXPECT_FALSE(engine.report_tracker().HasViolation());
}

TEST(EngineConfigTest, LiveViewTracksActivePopulation) {
  const Fixture fx;
  RetraSynEngine engine(fx.states, BaseConfig());
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
    if (!engine.synthesizer().initialized()) continue;
    // Live density sums to the live stream count, which matches the real
    // active population under size adjustment.
    const std::vector<uint32_t> density = engine.synthesizer().LiveDensity();
    uint64_t total = 0;
    for (uint32_t c : density) total += c;
    EXPECT_EQ(total, engine.synthesizer().num_live());
    EXPECT_EQ(engine.synthesizer().num_live(), fx.db.ActiveCount(t));
    // Live streams end at the current timestamp.
    std::vector<CellStream> live, finished;
    engine.synthesizer().SaveCheckpointState(&live, &finished);
    for (const CellStream& s : live) {
      EXPECT_EQ(s.end_time(), t + 1);
    }
  }
}

TEST(EngineConfigTest, BudgetAdaptiveSurvivesLargeWindowDepletion) {
  // Regression: with a large window the adaptive budget split can drive the
  // remaining window budget toward zero; rounds below the minimum meaningful
  // epsilon must be skipped (historically this produced 0/0 NaN estimates
  // through the vanishing OUE denominator and aborted).
  const Fixture fx;
  RetraSynConfig config = BaseConfig();
  config.division = DivisionStrategy::kBudget;
  config.window = 50;
  RetraSynEngine engine(fx.states, config);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
  }
  EXPECT_LE(engine.budget_ledger().MaxWindowSpend(), config.epsilon + 1e-9);
  for (double f : engine.model().frequencies()) {
    EXPECT_TRUE(std::isfinite(f));
  }
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  EXPECT_GT(syn.TotalPoints(), 0u);
}

TEST(EngineConfigTest, LambdaControlsSyntheticLengths) {
  // Larger lambda suppresses the Eq. 8 quit probability, yielding longer
  // synthetic streams on data with real churn.
  HotspotGeneratorConfig data_config;
  data_config.num_timestamps = 120;
  data_config.initial_users = 600;
  data_config.mean_arrivals = 45.0;
  Rng rng(31);
  const StreamDatabase db = GenerateHotspotStreams(data_config, rng);
  const UniformGrid grid(db.box(), 4);
  const StateSpace states(grid);
  const StreamFeeder feeder(db, grid, states);

  auto mean_length = [&](double lambda) {
    RetraSynConfig config = BaseConfig();
    config.lambda = lambda;
    RetraSynEngine engine(states, config);
    for (int64_t t = 0; t < feeder.num_timestamps(); ++t) {
      engine.Observe(feeder.Batch(t));
    }
    const CellStreamSet syn = engine.SnapshotRelease(feeder.num_timestamps());
    return static_cast<double>(syn.TotalPoints()) / syn.streams().size();
  };
  EXPECT_LT(mean_length(3.0), mean_length(60.0));
}

TEST(ConfigValidateTest, AcceptsDefaultAndBaseConfigs) {
  EXPECT_TRUE(RetraSynConfig{}.Validate().ok());
  EXPECT_TRUE(BaseConfig().Validate().ok());
}

TEST(ConfigValidateTest, RejectsNonPositiveEpsilon) {
  for (double eps : {0.0, -1.0, -0.001}) {
    RetraSynConfig config = BaseConfig();
    config.epsilon = eps;
    const Status st = config.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << eps;
    EXPECT_NE(st.message().find("epsilon"), std::string::npos) << eps;
  }
  RetraSynConfig config = BaseConfig();
  config.epsilon = std::numeric_limits<double>::infinity();
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.epsilon = std::nan("");
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigValidateTest, RejectsWindowBelowOne) {
  for (int w : {0, -1, -20}) {
    RetraSynConfig config = BaseConfig();
    config.window = w;
    const Status st = config.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << w;
    EXPECT_NE(st.message().find("window"), std::string::npos) << w;
  }
}

TEST(ConfigValidateTest, RejectsNonPositiveLambda) {
  for (double lambda : {0.0, -13.61}) {
    RetraSynConfig config = BaseConfig();
    config.lambda = lambda;
    const Status st = config.Validate();
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << lambda;
    EXPECT_NE(st.message().find("lambda"), std::string::npos) << lambda;
  }
}

TEST(ConfigValidateTest, RejectsRandomAllocationUnderBudgetDivision) {
  RetraSynConfig config = BaseConfig();
  config.division = DivisionStrategy::kBudget;
  config.allocation.kind = AllocationKind::kRandom;
  const Status st = config.Validate();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("population"), std::string::npos);
}

TEST(ConfigValidateTest, RejectsOutOfRangePortions) {
  RetraSynConfig config = BaseConfig();
  config.allocation.max_portion = 0.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = BaseConfig();
  config.allocation.max_portion = 1.5;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = BaseConfig();
  config.allocation.min_portion = 2.0;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  // Negative min_portion means "auto" and stays valid.
  config = BaseConfig();
  config.allocation.min_portion = -1.0;
  EXPECT_TRUE(config.Validate().ok());
  // NaN portions must not slip through the range checks.
  config = BaseConfig();
  config.allocation.max_portion = std::nan("");
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config = BaseConfig();
  config.allocation.min_portion = std::nan("");
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace retrasyn
