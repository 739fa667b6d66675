#include "core/engine.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/synthesizer.h"
#include "geo/grid.h"
#include "stream/random_walk_generator.h"
#include "telemetry/telemetry.h"

namespace retrasyn {
namespace {

struct EngineFixture {
  EngineFixture(int64_t horizon = 60, uint32_t users = 150, uint64_t seed = 7)
      : grid(BoundingBox{0.0, 0.0, 1000.0, 1000.0}, 4), states(grid) {
    RandomWalkConfig config;
    config.num_timestamps = horizon;
    config.initial_users = users;
    config.mean_arrivals = users / 15.0;
    config.quit_probability = 0.04;
    Rng rng(seed);
    db = GenerateRandomWalkStreams(config, rng);
    feeder = std::make_unique<StreamFeeder>(db, grid, states);
  }

  void Run(RetraSynEngine& engine) const {
    for (int64_t t = 0; t < feeder->num_timestamps(); ++t) {
      engine.Observe(feeder->Batch(t));
    }
  }

  UniformGrid grid;
  StateSpace states;
  StreamDatabase db;
  std::unique_ptr<StreamFeeder> feeder;
};

RetraSynConfig BaseConfig(DivisionStrategy division, AllocationKind kind) {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 10;
  config.division = division;
  config.allocation.kind = kind;
  config.lambda = 12.0;
  config.seed = 3;
  return config;
}

struct StrategyParam {
  DivisionStrategy division;
  AllocationKind allocation;
};

class EngineStrategyTest : public testing::TestWithParam<StrategyParam> {};

TEST_P(EngineStrategyTest, RunsAndProducesValidSynthetic) {
  const EngineFixture fx;
  RetraSynEngine engine(fx.states,
                        BaseConfig(GetParam().division, GetParam().allocation));
  fx.Run(engine);
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  EXPECT_GT(syn.streams().size(), 0u);
  for (const CellStream& s : syn.streams()) {
    EXPECT_GE(s.enter_time, 0);
    EXPECT_LE(s.end_time(), fx.feeder->num_timestamps());
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_TRUE(fx.grid.AreNeighbors(s.cells[i - 1], s.cells[i]));
    }
  }
}

TEST_P(EngineStrategyTest, WEventGuaranteeHolds) {
  const EngineFixture fx;
  const RetraSynConfig config =
      BaseConfig(GetParam().division, GetParam().allocation);
  RetraSynEngine engine(fx.states, config);
  fx.Run(engine);
  if (GetParam().division == DivisionStrategy::kBudget) {
    // No sliding window may spend more than epsilon.
    EXPECT_LE(engine.budget_ledger().MaxWindowSpend(), config.epsilon + 1e-9);
  } else {
    // No user may report twice within a window.
    EXPECT_FALSE(engine.report_tracker().HasViolation());
    EXPECT_GT(engine.total_reports(), 0u);
  }
}

TEST_P(EngineStrategyTest, SyntheticSizeTracksRealActiveCounts) {
  const EngineFixture fx;
  RetraSynEngine engine(fx.states,
                        BaseConfig(GetParam().division, GetParam().allocation));
  fx.Run(engine);
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  // With enter/quit modeling on, the active counts must match exactly from
  // the first collection onwards.
  for (int64_t t = 1; t < fx.feeder->num_timestamps(); ++t) {
    EXPECT_EQ(syn.ActiveCount(t), fx.db.ActiveCount(t)) << "t=" << t;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, EngineStrategyTest,
    testing::Values(
        StrategyParam{DivisionStrategy::kBudget, AllocationKind::kAdaptive},
        StrategyParam{DivisionStrategy::kBudget, AllocationKind::kUniform},
        StrategyParam{DivisionStrategy::kBudget, AllocationKind::kSample},
        StrategyParam{DivisionStrategy::kPopulation, AllocationKind::kAdaptive},
        StrategyParam{DivisionStrategy::kPopulation, AllocationKind::kUniform},
        StrategyParam{DivisionStrategy::kPopulation, AllocationKind::kSample},
        StrategyParam{DivisionStrategy::kPopulation, AllocationKind::kRandom}),
    [](const testing::TestParamInfo<StrategyParam>& info) {
      return std::string(DivisionStrategyName(info.param.division)) + "_" +
             AllocationKindName(info.param.allocation);
    });

TEST(EngineTest, NamesEncodeVariant) {
  const EngineFixture fx(10, 20);
  {
    RetraSynEngine e(fx.states, BaseConfig(DivisionStrategy::kPopulation,
                                           AllocationKind::kAdaptive));
    EXPECT_EQ(e.name(), "RetraSynp-Adaptive");
  }
  {
    RetraSynConfig c =
        BaseConfig(DivisionStrategy::kBudget, AllocationKind::kUniform);
    c.use_dmu = false;
    RetraSynEngine e(fx.states, c);
    EXPECT_EQ(e.name(), "AllUpdateb-Uniform");
  }
  {
    RetraSynConfig c =
        BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kAdaptive);
    c.use_eq = false;
    RetraSynEngine e(fx.states, c);
    EXPECT_EQ(e.name(), "NoEQp-Adaptive");
  }
}

TEST(EngineTest, NoEqVariantFreezesPopulationAndNeverTerminates) {
  const EngineFixture fx;
  RetraSynConfig config =
      BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kAdaptive);
  config.use_eq = false;
  RetraSynEngine engine(fx.states, config);
  fx.Run(engine);
  const CellStreamSet syn = engine.SnapshotRelease(fx.feeder->num_timestamps());
  // All synthetic streams share one enter time and survive to the horizon.
  ASSERT_GT(syn.streams().size(), 0u);
  const int64_t t0 = syn.streams()[0].enter_time;
  for (const CellStream& s : syn.streams()) {
    EXPECT_EQ(s.enter_time, t0);
    EXPECT_EQ(s.end_time(), fx.feeder->num_timestamps());
  }
}

TEST(EngineTest, AllUpdateVariantStillSatisfiesPrivacyDiscipline) {
  const EngineFixture fx;
  RetraSynConfig config =
      BaseConfig(DivisionStrategy::kBudget, AllocationKind::kAdaptive);
  config.use_dmu = false;
  RetraSynEngine engine(fx.states, config);
  fx.Run(engine);
  EXPECT_LE(engine.budget_ledger().MaxWindowSpend(), config.epsilon + 1e-9);
}

TEST(EngineTest, PerUserCollectionModeWorks) {
  const EngineFixture fx(30, 60);
  RetraSynConfig config =
      BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kUniform);
  config.collection_mode = CollectionMode::kPerUser;
  RetraSynEngine engine(fx.states, config);
  fx.Run(engine);
  const CellStreamSet syn = engine.SnapshotRelease(30);
  EXPECT_GT(syn.TotalPoints(), 0u);
  EXPECT_FALSE(engine.report_tracker().HasViolation());
}

TEST(EngineTest, DeterministicGivenSeed) {
  const EngineFixture fx(40, 80);
  auto run_once = [&]() {
    RetraSynEngine engine(fx.states, BaseConfig(DivisionStrategy::kPopulation,
                                                AllocationKind::kAdaptive));
    for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
      engine.Observe(fx.feeder->Batch(t));
    }
    return engine.SnapshotRelease(fx.feeder->num_timestamps());
  };
  const CellStreamSet a = run_once();
  const CellStreamSet b = run_once();
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time);
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells);
  }
}

TEST(EngineTest, ComponentTimesAccumulate) {
  // The four Table V components are timed into the engine's histograms,
  // one sample per observed round each.
  const EngineFixture fx(30, 60);
  RetraSynEngine engine(fx.states, BaseConfig(DivisionStrategy::kPopulation,
                                              AllocationKind::kAdaptive));
  Telemetry telemetry;
  engine.AttachTelemetry(&telemetry);
  fx.Run(engine);
  for (const char* name : {"retrasyn_engine_user_side_seconds",
                           "retrasyn_engine_model_construction_seconds",
                           "retrasyn_engine_dmu_seconds",
                           "retrasyn_engine_synthesis_seconds"}) {
    const LatencyHistogram* hist = telemetry.registry().GetHistogram(name, "");
    EXPECT_EQ(hist->Count(), 30u) << name;
  }
  EXPECT_GT(telemetry.registry()
                .GetHistogram("retrasyn_engine_synthesis_seconds", "")
                ->SumSeconds(),
            0.0);
}

TEST(EngineTest, TelemetryIsObservationOnly) {
  // A bare engine is the one layer with a detached mode. Attached or
  // detached, it must release the same bytes, also when the rounds split
  // into several synthesis chunks that draw from forked RNGs.
  constexpr int64_t kHorizon = 8;
  const EngineFixture fx(kHorizon, 12000);
  const RetraSynConfig config =
      BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kAdaptive);
  RetraSynEngine attached(fx.states, config);
  RetraSynEngine detached(fx.states, config);
  Telemetry telemetry;
  attached.AttachTelemetry(&telemetry);
  int last_round_chunks = 0;
  for (int64_t t = 0; t < kHorizon; ++t) {
    // The live count entering a round is that round's work size.
    last_round_chunks =
        Synthesizer::EffectiveChunks(attached.synthesizer().num_live());
    const TimestampBatch batch = fx.feeder->Batch(t);
    attached.Observe(batch);
    detached.Observe(batch);
    ASSERT_EQ(attached.LiveDensity(), detached.LiveDensity()) << "t=" << t;
  }
  ASSERT_GE(last_round_chunks, 4);
  EXPECT_EQ(telemetry.registry()
                .GetCounter("retrasyn_engine_rounds_observed_total", "")
                ->Value(),
            static_cast<uint64_t>(kHorizon));

  const CellStreamSet a = attached.SnapshotRelease(kHorizon);
  const CellStreamSet b = detached.SnapshotRelease(kHorizon);
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    ASSERT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time) << i;
    ASSERT_EQ(a.streams()[i].cells, b.streams()[i].cells) << i;
  }
}

TEST(EngineTest, ReportsNeverExceedOnePerUserPerWindow) {
  // Also exercised with the Sample strategy where all users report at window
  // boundaries -- the recycling path must line up exactly.
  const EngineFixture fx(55, 120);
  RetraSynConfig config =
      BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kSample);
  RetraSynEngine engine(fx.states, config);
  fx.Run(engine);
  EXPECT_FALSE(engine.report_tracker().HasViolation());
  EXPECT_GT(engine.total_reports(), 0u);
}

TEST(EngineTest, RandomAllocationRejectedForBudgetDivision) {
  const EngineFixture fx(10, 20);
  RetraSynConfig config =
      BaseConfig(DivisionStrategy::kBudget, AllocationKind::kRandom);
  EXPECT_DEATH(RetraSynEngine(fx.states, config),
               "only defined under population division");
}

TimestampBatch QuitBatch(const StateSpace& states, int64_t t, uint32_t index,
                         CellId at) {
  TimestampBatch batch;
  batch.t = t;
  UserObservation obs;
  obs.user_index = index;
  obs.state = states.QuitIndex(at);
  obs.is_quit = true;
  batch.observations.push_back(obs);
  return batch;
}

TimestampBatch EnterBatch(const StateSpace& states, int64_t t, uint32_t index,
                          CellId at) {
  TimestampBatch batch;
  batch.t = t;
  batch.num_active = 1;
  UserObservation obs;
  obs.user_index = index;
  obs.state = states.EnterIndex(at);
  obs.is_enter = true;
  batch.observations.push_back(obs);
  return batch;
}

TEST(EngineTest, RetiresQuitIndexExactlyOneWindowAfterQuit) {
  // Hand-built batches pin the retire boundary: a stream quitting at round q
  // is counted by total_retired() at the batch for q + window, not before.
  const EngineFixture fx(10, 20);
  RetraSynConfig config =
      BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kAdaptive);
  config.window = 3;
  RetraSynEngine engine(fx.states, config);
  const CellId cell = fx.grid.Cell(1, 1);

  engine.Observe(EnterBatch(fx.states, 0, 0, cell));
  engine.Observe(QuitBatch(fx.states, 1, 0, cell));
  EXPECT_EQ(engine.total_retired(), 0u) << "t=1";
  for (int64_t t = 2; t < 4; ++t) {
    TimestampBatch empty;
    empty.t = t;
    engine.Observe(empty);
    EXPECT_EQ(engine.total_retired(), 0u) << "t=" << t;
  }
  TimestampBatch boundary;
  boundary.t = 4;  // quit round 1 + window 3
  engine.Observe(boundary);
  EXPECT_EQ(engine.total_retired(), 1u);
  // The slot is reusable: a new stream on index 0 is eligible again (it gets
  // registered active and can be chosen), and the dense state never grew
  // past the single slot.
  engine.Observe(EnterBatch(fx.states, 5, 0, cell));
  EXPECT_EQ(engine.dense_user_slots(), 1u);
  EXPECT_FALSE(engine.report_tracker().HasViolation());
}

TEST(EngineTest, CheckpointRestoreBoundsTheDenseReportTracker) {
  const EngineFixture fx(30);
  const RetraSynConfig config =
      BaseConfig(DivisionStrategy::kPopulation, AllocationKind::kAdaptive);
  RetraSynEngine engine(fx.states, config);
  fx.Run(engine);
  const EngineCheckpointState saved = engine.SaveCheckpointState();
  ASSERT_FALSE(saved.tracker_last_report.empty());
  for (size_t i = 1; i < saved.tracker_last_report.size(); ++i) {
    EXPECT_LT(saved.tracker_last_report[i - 1].first,
              saved.tracker_last_report[i].first);
  }

  // A faithful round trip reproduces the tracker exactly.
  RetraSynEngine restored(fx.states, config);
  ASSERT_TRUE(restored.RestoreCheckpointState(saved).ok());
  const EngineCheckpointState again = restored.SaveCheckpointState();
  EXPECT_EQ(again.tracker_last_report, saved.tracker_last_report);
  EXPECT_EQ(again.tracker_num_reports, saved.tracker_num_reports);
  EXPECT_EQ(again.tracker_violation, saved.tracker_violation);

  // Checkpoint bytes must never size the dense vector: a user far beyond
  // the status vector is refused before anything is allocated.
  EngineCheckpointState huge = saved;
  huge.tracker_last_report.emplace_back(uint64_t{1} << 40, 29);
  EXPECT_EQ(restored.RestoreCheckpointState(huge).code(),
            StatusCode::kInvalidArgument);

  EngineCheckpointState edge = saved;
  edge.tracker_last_report.back().first = edge.status.size();
  EXPECT_EQ(restored.RestoreCheckpointState(edge).code(),
            StatusCode::kInvalidArgument);

  EngineCheckpointState unordered = saved;
  ASSERT_GE(unordered.tracker_last_report.size(), 2u);
  std::swap(unordered.tracker_last_report[0], unordered.tracker_last_report[1]);
  EXPECT_EQ(restored.RestoreCheckpointState(unordered).code(),
            StatusCode::kInvalidArgument);

  // The refusals left the restored state untouched.
  EXPECT_EQ(restored.SaveCheckpointState().tracker_last_report,
            saved.tracker_last_report);
}

}  // namespace
}  // namespace retrasyn
