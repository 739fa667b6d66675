#include "core/release_server.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/engine.h"
#include "geo/grid.h"
#include "stream/random_walk_generator.h"

namespace retrasyn {
namespace {

/// The release a service would deliver for round \p t of a bare engine.
RoundRelease ReleaseOf(const StreamReleaseEngine& engine, int64_t t) {
  RoundRelease round;
  round.t = t;
  round.density = engine.LiveDensity();
  for (uint32_t c : round.density) round.active += c;
  return round;
}

struct ServerFixture {
  ServerFixture() : grid(BoundingBox{0.0, 0.0, 1000.0, 1000.0}, 4),
                    states(grid) {
    RandomWalkConfig config;
    config.num_timestamps = 60;
    config.initial_users = 250;
    config.mean_arrivals = 15.0;
    Rng rng(41);
    db = GenerateRandomWalkStreams(config, rng);
    feeder = std::make_unique<StreamFeeder>(db, grid, states);
  }

  RetraSynConfig EngineConfig() const {
    RetraSynConfig config;
    config.epsilon = 1.0;
    config.window = 10;
    config.division = DivisionStrategy::kPopulation;
    config.lambda = 12.0;
    config.seed = 6;
    return config;
  }

  UniformGrid grid;
  StateSpace states;
  StreamDatabase db;
  std::unique_ptr<StreamFeeder> feeder;
};

TEST(ReleaseServerTest, LiveAnswersMatchPostHocRelease) {
  // The online server's per-timestamp answers must equal what the post-hoc
  // DensityIndex computes from the finished release — the consistency that
  // makes "query the live view" legitimate.
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
    ASSERT_TRUE(server.OnRound(ReleaseOf(engine, t)).ok());
  }
  const CellStreamSet released =
      engine.SnapshotRelease(fx.feeder->num_timestamps());
  const DensityIndex post_hoc(released, fx.grid);

  ASSERT_EQ(server.horizon(), fx.feeder->num_timestamps());
  for (int64_t t = 0; t < server.horizon(); ++t) {
    EXPECT_EQ(server.DensityAt(t), post_hoc.DensityAt(t)) << "t=" << t;
    EXPECT_EQ(server.ActiveAt(t), post_hoc.TotalPointsIn(t, t + 1))
        << "t=" << t;
  }
}

TEST(ReleaseServerTest, RangeCountsMatchPostHoc) {
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
    ASSERT_TRUE(server.OnRound(ReleaseOf(engine, t)).ok());
  }
  const CellStreamSet released =
      engine.SnapshotRelease(fx.feeder->num_timestamps());
  const DensityIndex post_hoc(released, fx.grid);

  Rng qrng(9);
  const auto queries =
      GenerateRandomQueries(fx.grid, server.horizon(), 8, 40, qrng);
  for (const RangeQuery& q : queries) {
    EXPECT_EQ(server.RangeCount(q), post_hoc.Count(q));
  }
}

TEST(ReleaseServerTest, TopHotspotsMatchAggregateDensity) {
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
    ASSERT_TRUE(server.OnRound(ReleaseOf(engine, t)).ok());
  }
  const CellStreamSet released =
      engine.SnapshotRelease(fx.feeder->num_timestamps());
  const DensityIndex post_hoc(released, fx.grid);

  const auto hotspots = server.TopHotspots(10, 30, 5);
  ASSERT_EQ(hotspots.size(), 5u);
  const std::vector<double> agg = post_hoc.AggregateDensity(10, 30);
  // The reported hotspots are sorted by aggregate density.
  for (size_t i = 1; i < hotspots.size(); ++i) {
    EXPECT_GE(agg[hotspots[i - 1]], agg[hotspots[i]]);
  }
  // And the first one is a global maximum.
  for (CellId c = 0; c < fx.grid.NumCells(); ++c) {
    EXPECT_LE(agg[c], agg[hotspots[0]] + 1e-9);
  }
}

TEST(ReleaseServerTest, PreInitializationTimestampsAreZero) {
  // If ingestion starts before the engine's first synthesis round, those
  // timestamps report zero density rather than garbage.
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  // before any Observe
  ASSERT_TRUE(server.OnRound(ReleaseOf(engine, 0)).ok());
  EXPECT_EQ(server.ActiveAt(0), 0u);
  EXPECT_EQ(server.horizon(), 1);
}

TEST(ReleaseServerTest, TrailingMeanActive) {
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  for (int64_t t = 0; t < 20; ++t) {
    engine.Observe(fx.feeder->Batch(t));
    ASSERT_TRUE(server.OnRound(ReleaseOf(engine, t)).ok());
  }
  const double mean5 = server.TrailingMeanActive(5);
  double expected = 0.0;
  for (int64_t t = 15; t < 20; ++t) {
    expected += static_cast<double>(server.ActiveAt(t));
  }
  expected /= 5.0;
  EXPECT_DOUBLE_EQ(mean5, expected);
  // Window larger than history falls back to the full mean.
  EXPECT_GT(server.TrailingMeanActive(1000), 0.0);
}

TEST(ReleaseServerTest, OutOfHorizonQueriesAnswerZero) {
  // Regression: a service client may query timestamps that are negative or
  // not yet ingested; the server must answer zeros, not crash or read out of
  // bounds.
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  for (int64_t t = 0; t < 10; ++t) {
    engine.Observe(fx.feeder->Batch(t));
    ASSERT_TRUE(server.OnRound(ReleaseOf(engine, t)).ok());
  }
  ASSERT_EQ(server.horizon(), 10);
  for (int64_t t : {int64_t{-1}, int64_t{-100}, int64_t{10}, int64_t{9999}}) {
    EXPECT_EQ(server.ActiveAt(t), 0u) << "t=" << t;
    const std::vector<uint32_t>& density = server.DensityAt(t);
    ASSERT_EQ(density.size(), fx.grid.NumCells()) << "t=" << t;
    for (uint32_t c : density) EXPECT_EQ(c, 0u) << "t=" << t;
  }
  // In-horizon answers still work.
  EXPECT_GT(server.ActiveAt(9), 0u);
}

TEST(ReleaseServerTest, RangeCountClampsWindowAndGrid) {
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);
  for (int64_t t = 0; t < 10; ++t) {
    engine.Observe(fx.feeder->Batch(t));
    ASSERT_TRUE(server.OnRound(ReleaseOf(engine, t)).ok());
  }
  // Full-grid query over the whole horizon.
  RangeQuery all;
  all.row_lo = 0;
  all.row_hi = fx.grid.k() - 1;
  all.col_lo = 0;
  all.col_hi = fx.grid.k() - 1;
  all.t_start = 0;
  all.t_end = server.horizon();
  const uint64_t total = server.RangeCount(all);

  // A wildly over-wide query clamps to the same answer instead of indexing
  // out of bounds.
  RangeQuery wide = all;
  wide.row_hi = 1000;
  wide.col_hi = 1000;
  wide.t_start = -50;
  wide.t_end = server.horizon() + 500;
  EXPECT_EQ(server.RangeCount(wide), total);

  // Fully outside the horizon: zero.
  RangeQuery future = all;
  future.t_start = server.horizon() + 1;
  future.t_end = server.horizon() + 10;
  EXPECT_EQ(server.RangeCount(future), 0u);
  RangeQuery past = all;
  past.t_start = -10;
  past.t_end = 0;
  EXPECT_EQ(server.RangeCount(past), 0u);

  // Degenerate spatial window (lo beyond grid): empty.
  RangeQuery off_grid = all;
  off_grid.row_lo = fx.grid.k();
  off_grid.row_hi = fx.grid.k() + 3;
  EXPECT_EQ(server.RangeCount(off_grid), 0u);
}

TEST(ReleaseServerTest, TrailingMeanActiveHardened) {
  const ServerFixture fx;
  ReleaseServer server(fx.grid);
  // Nothing ingested, nonsensical windows: zero, not a crash.
  EXPECT_EQ(server.TrailingMeanActive(5), 0.0);
  EXPECT_EQ(server.TrailingMeanActive(0), 0.0);
  EXPECT_EQ(server.TrailingMeanActive(-3), 0.0);
}

TEST(ReleaseServerTest, SkippedRoundsBackfillAsZerosAndStayAligned) {
  // A consumer that skips ahead gets the missed rounds recorded as zeros,
  // so "round t lands at index t" holds on both sides of the gap.
  const ServerFixture fx;
  RetraSynEngine engine(fx.states, fx.EngineConfig());
  ReleaseServer server(fx.grid);

  engine.Observe(fx.feeder->Batch(0));
  ASSERT_TRUE(server.OnRound(ReleaseOf(engine, 0)).ok());
  EXPECT_EQ(server.horizon(), 1);

  RoundRelease round;
  round.t = 3;  // subscribed consumer skipped ahead: backfill 1 and 2
  round.density.assign(fx.grid.NumCells(), 0);
  round.density[5] = 7;
  round.active = 7;
  ASSERT_TRUE(server.OnRound(round).ok());
  EXPECT_EQ(server.horizon(), 4);
  EXPECT_EQ(server.ActiveAt(1), 0u);
  EXPECT_EQ(server.ActiveAt(2), 0u);
  EXPECT_EQ(server.DensityAt(3)[5], 7u);

  engine.Observe(fx.feeder->Batch(1));
  ASSERT_TRUE(server.OnRound(ReleaseOf(engine, 4)).ok());
  EXPECT_EQ(server.horizon(), 5);
  EXPECT_EQ(server.DensityAt(3)[5], 7u);  // round 3 is untouched
}

TEST(ReleaseServerTest, OutOfOrderAndDuplicateRoundsRejected) {
  const ServerFixture fx;
  ReleaseServer server(fx.grid);
  RoundRelease round;
  round.t = 2;
  round.density.assign(fx.grid.NumCells(), 1);
  round.active = fx.grid.NumCells();
  ASSERT_TRUE(server.OnRound(round).ok());
  EXPECT_EQ(server.horizon(), 3);

  // Duplicate round: rejected, nothing recorded.
  EXPECT_EQ(server.OnRound(round).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.horizon(), 3);
  // Out-of-order (past) round: rejected.
  round.t = 1;
  EXPECT_EQ(server.OnRound(round).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.horizon(), 3);
  // Density of the wrong cardinality: rejected.
  round.t = 5;
  round.density.resize(fx.grid.NumCells() + 1);
  EXPECT_EQ(server.OnRound(round).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.horizon(), 3);
}

RoundRelease MakeRound(const UniformGrid& grid, int64_t t, uint32_t fill) {
  RoundRelease round;
  round.t = t;
  round.density.assign(grid.NumCells(), fill);
  round.active = static_cast<uint64_t>(fill) * grid.NumCells();
  return round;
}

TEST(ReleaseServerTest, RetentionEvictsOldRoundsAndTheyAnswerZero) {
  // Bounded retention: only the trailing retention_rounds stay queryable;
  // evicted timestamps answer zero/empty exactly like never-ingested ones.
  const UniformGrid grid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 2);
  ReleaseServer server(grid, /*retention_rounds=*/5);
  for (int64_t t = 0; t < 20; ++t) {
    ASSERT_TRUE(server.OnRound(MakeRound(grid, t, static_cast<uint32_t>(t + 1)))
                    .ok());
  }
  EXPECT_EQ(server.horizon(), 20);
  EXPECT_EQ(server.retention_rounds(), 5);
  EXPECT_EQ(server.first_retained(), 15);
  // Retained rounds answer their recorded values...
  for (int64_t t = 15; t < 20; ++t) {
    EXPECT_EQ(server.DensityAt(t)[0], static_cast<uint32_t>(t + 1));
    EXPECT_EQ(server.ActiveAt(t),
              static_cast<uint64_t>(t + 1) * grid.NumCells());
  }
  // ...evicted and out-of-horizon ones answer zero.
  for (int64_t t : {-1L, 0L, 7L, 14L, 20L, 99L}) {
    EXPECT_EQ(server.ActiveAt(t), 0u) << "t=" << t;
    for (uint32_t c : server.DensityAt(t)) EXPECT_EQ(c, 0u);
  }
}

TEST(ReleaseServerTest, RetentionClampsRangeQueriesAndTrailingMean) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 2);
  ReleaseServer server(grid, /*retention_rounds=*/4);
  for (int64_t t = 0; t < 10; ++t) {
    ASSERT_TRUE(server.OnRound(MakeRound(grid, t, 2)).ok());
  }
  ASSERT_EQ(server.first_retained(), 6);
  // A range spanning evicted rounds counts only the retained suffix: rounds
  // [6, 10) x 4 cells x 2 points.
  RangeQuery query;
  query.t_start = 0;
  query.t_end = 10;
  query.row_lo = 0;
  query.row_hi = grid.k() - 1;
  query.col_lo = 0;
  query.col_hi = grid.k() - 1;
  EXPECT_EQ(server.RangeCount(query), 4u * 4u * 2u);
  // A fully evicted range counts zero.
  query.t_end = 5;
  EXPECT_EQ(server.RangeCount(query), 0u);
  // TrailingMeanActive over a window wider than retention averages the
  // retained suffix only (all rounds carry 8 actives here).
  EXPECT_DOUBLE_EQ(server.TrailingMeanActive(100), 8.0);
  // Hotspots aggregate only retained rounds — still well-defined.
  EXPECT_EQ(server.TopHotspots(0, 10, 1).size(), 1u);
}

TEST(ReleaseServerTest, RetentionFastForwardsLargeBackfillGaps) {
  // A server with retention subscribed mid-stream far past its horizon must
  // not materialize a zero row per missed round.
  const UniformGrid grid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 2);
  ReleaseServer server(grid, /*retention_rounds=*/8);
  ASSERT_TRUE(server.OnRound(MakeRound(grid, 0, 1)).ok());
  ASSERT_TRUE(server.OnRound(MakeRound(grid, 1000000, 3)).ok());
  EXPECT_EQ(server.horizon(), 1000001);
  EXPECT_GE(server.first_retained(), 1000001 - 8);
  EXPECT_EQ(server.DensityAt(1000000)[0], 3u);
  EXPECT_EQ(server.ActiveAt(0), 0u);        // evicted
  EXPECT_EQ(server.ActiveAt(999999), 0u);   // backfilled zero or evicted
}

TEST(ReleaseServerTest, UnlimitedRetentionKeepsLegacyBehavior) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 2);
  ReleaseServer server(grid);
  for (int64_t t = 0; t < 50; ++t) {
    ASSERT_TRUE(server.OnRound(MakeRound(grid, t, 1)).ok());
  }
  EXPECT_EQ(server.retention_rounds(), 0);
  EXPECT_EQ(server.first_retained(), 0);
  EXPECT_EQ(server.ActiveAt(0), 4u);
}

TEST(PrivacyExtremesTest, WindowOneIsEventLevel) {
  // w = 1 degenerates to event-level LDP (paper SII-B): every user may
  // report at every timestamp under population division.
  const ServerFixture fx;
  RetraSynConfig config = fx.EngineConfig();
  config.window = 1;
  RetraSynEngine engine(fx.states, config);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
  }
  EXPECT_FALSE(engine.report_tracker().HasViolation());
  // With w = 1 and recycling every timestamp, the engine can use a large
  // share of all observations.
  EXPECT_GT(engine.total_reports(),
            fx.feeder->cell_streams().TotalPoints() / 4);
}

TEST(PrivacyExtremesTest, WindowEqualToHorizonIsUserLevel) {
  // w = stream horizon: each user reports at most once over the whole run —
  // user-level LDP on the finite stream.
  const ServerFixture fx;
  RetraSynConfig config = fx.EngineConfig();
  config.window = static_cast<int>(fx.feeder->num_timestamps());
  RetraSynEngine engine(fx.states, config);
  for (int64_t t = 0; t < fx.feeder->num_timestamps(); ++t) {
    engine.Observe(fx.feeder->Batch(t));
  }
  EXPECT_FALSE(engine.report_tracker().HasViolation());
  // No user may appear twice: total reports <= number of users.
  EXPECT_LE(engine.total_reports(), fx.db.streams().size());
}

}  // namespace
}  // namespace retrasyn
