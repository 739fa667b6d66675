// Cross-cutting sanity properties of the full metric suite: identical
// synthetic data must score perfectly, disjoint data must score at the
// worst-case bounds, and every metric must react in the right direction to a
// controlled degradation.

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/grid.h"
#include "metrics/historical.h"
#include "metrics/queries.h"
#include "metrics/streaming.h"

namespace retrasyn {
namespace {

constexpr double kLn2 = 0.6931471805599453;

class MetricsSuiteTest : public testing::Test {
 protected:
  MetricsSuiteTest()
      : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4), states_(grid_) {}

  // A structured stream set: walkers snake across the grid rows.
  CellStreamSet MakeStructuredSet(uint64_t seed, int num_streams,
                                  int64_t horizon) const {
    Rng rng(seed);
    CellStreamSet set(horizon);
    for (int i = 0; i < num_streams; ++i) {
      CellStream s;
      s.enter_time = rng.UniformInt(int64_t{0}, horizon / 2);
      CellId at = static_cast<CellId>(
          rng.UniformInt(uint64_t{grid_.NumCells()}));
      const int64_t len =
          1 + rng.UniformInt(int64_t{0}, horizon - s.enter_time - 1);
      for (int64_t j = 0; j < len; ++j) {
        s.cells.push_back(at);
        const auto& nbrs = grid_.Neighbors(at);
        at = nbrs[rng.UniformInt(uint64_t{nbrs.size()})];
      }
      set.Add(std::move(s)).CheckOK();
    }
    return set;
  }

  StreamingMetricsConfig Config() const {
    StreamingMetricsConfig config;
    config.phi = 5;
    config.num_queries = 40;
    config.num_hotspot_ranges = 20;
    config.num_pattern_ranges = 20;
    return config;
  }

  UniformGrid grid_;
  StateSpace states_;
};

TEST_F(MetricsSuiteTest, IdenticalSetsScorePerfectly) {
  const CellStreamSet set = MakeStructuredSet(1, 300, 40);
  const DensityIndex d(set, grid_);
  const TransitionIndex tr(set, states_);
  EXPECT_DOUBLE_EQ(AverageDensityError(d, d), 0.0);
  EXPECT_DOUBLE_EQ(AverageTransitionError(tr, tr), 0.0);
  Rng r1(1);
  EXPECT_DOUBLE_EQ(AverageQueryError(d, d, grid_, Config(), r1), 0.0);
  Rng r2(2);
  EXPECT_NEAR(AverageHotspotNdcg(d, d, Config(), r2), 1.0, 1e-9);
  Rng r3(3);
  EXPECT_NEAR(AveragePatternF1(set, set, Config(), r3), 1.0, 1e-9);
  EXPECT_NEAR(CellPopularityKendallTau(set, set, grid_.NumCells()), 1.0,
              1e-9);
  EXPECT_DOUBLE_EQ(TripError(set, set, grid_.NumCells()), 0.0);
  EXPECT_DOUBLE_EQ(LengthError(set, set), 0.0);
}

TEST_F(MetricsSuiteTest, SpatiallyDisjointSetsScoreWorst) {
  // Original confined to cell 0; synthetic confined to cell 15.
  CellStreamSet orig(10), syn(10);
  for (int i = 0; i < 50; ++i) {
    CellStream a;
    a.enter_time = 0;
    a.cells.assign(5, 0);
    orig.Add(std::move(a)).CheckOK();
    CellStream b;
    b.enter_time = 0;
    b.cells.assign(10, 15);
    syn.Add(std::move(b)).CheckOK();
  }
  const DensityIndex od(orig, grid_), sd(syn, grid_);
  EXPECT_NEAR(AverageDensityError(od, sd), kLn2, 1e-9);
  EXPECT_NEAR(TripError(orig, syn, grid_.NumCells()), kLn2, 1e-9);
  EXPECT_NEAR(LengthError(orig, syn), kLn2, 1e-9);
  Rng r(4);
  EXPECT_NEAR(AveragePatternF1(orig, syn, Config(), r), 0.0, 1e-9);
}

TEST_F(MetricsSuiteTest, DegradedCopyScoresBetweenExtremes) {
  const CellStreamSet orig = MakeStructuredSet(5, 400, 40);
  // "Degraded": an independent draw from the same generator (same marginal
  // process, different realization) should be much better than disjoint data
  // but imperfect.
  const CellStreamSet resampled = MakeStructuredSet(6, 400, 40);
  const DensityIndex od(orig, grid_), rd(resampled, grid_);
  const double density = AverageDensityError(od, rd);
  EXPECT_GT(density, 0.0);
  EXPECT_LT(density, kLn2 * 0.8);
  const double tau =
      CellPopularityKendallTau(orig, resampled, grid_.NumCells());
  EXPECT_GT(tau, 0.2);
}

TEST_F(MetricsSuiteTest, QueryErrorReactsToScaleMismatch) {
  // Halving the synthetic population must produce a clearly nonzero query
  // error even though the shape matches.
  CellStreamSet orig(10), syn(10);
  for (int i = 0; i < 100; ++i) {
    CellStream s;
    s.enter_time = 0;
    s.cells.assign(10, static_cast<CellId>(i % 16));
    orig.Add(std::move(s)).CheckOK();
    if (i % 2 == 0) {
      CellStream h;
      h.enter_time = 0;
      h.cells.assign(10, static_cast<CellId>(i % 16));
      syn.Add(std::move(h)).CheckOK();
    }
  }
  const DensityIndex od(orig, grid_), sd(syn, grid_);
  Rng r(7);
  const double err = AverageQueryError(od, sd, grid_, Config(), r);
  EXPECT_NEAR(err, 0.5, 0.05);  // |o - o/2| / o
}

TEST_F(MetricsSuiteTest, TransitionErrorSeesDirectionFlip) {
  // Original always moves right; synthetic always moves left. Densities can
  // agree while the transition distributions are disjoint.
  CellStreamSet orig(3), syn(3);
  for (int i = 0; i < 60; ++i) {
    CellStream a;
    a.enter_time = 0;
    a.cells = {grid_.Cell(1, 0), grid_.Cell(1, 1), grid_.Cell(1, 2)};
    orig.Add(std::move(a)).CheckOK();
    CellStream b;
    b.enter_time = 0;
    b.cells = {grid_.Cell(1, 2), grid_.Cell(1, 1), grid_.Cell(1, 0)};
    syn.Add(std::move(b)).CheckOK();
  }
  const TransitionIndex ot(orig, states_), st(syn, states_);
  EXPECT_NEAR(AverageTransitionError(ot, st), kLn2, 1e-9);
}

TEST_F(MetricsSuiteTest, HotspotNdcgPenalizesWrongRanking) {
  // Original hotspots: cells 0 (100 pts) and 5 (50 pts). Synthetic inverts
  // the popularity and adds mass elsewhere.
  CellStreamSet orig(4), syn(4);
  auto add_streams = [&](CellStreamSet& set, CellId cell, int count) {
    for (int i = 0; i < count; ++i) {
      CellStream s;
      s.enter_time = 0;
      s.cells.assign(4, cell);
      set.Add(std::move(s)).CheckOK();
    }
  };
  add_streams(orig, 0, 100);
  add_streams(orig, 5, 50);
  add_streams(syn, 10, 100);
  add_streams(syn, 5, 50);
  add_streams(syn, 0, 10);
  const DensityIndex od(orig, grid_), sd(syn, grid_);
  StreamingMetricsConfig config = Config();
  config.hotspot_k = 2;
  Rng r(8);
  const double ndcg = AverageHotspotNdcg(od, sd, config, r);
  EXPECT_LT(ndcg, 1.0);
  EXPECT_GT(ndcg, 0.0);
}

TEST_F(MetricsSuiteTest, LengthErrorSeparatesLengthScales) {
  CellStreamSet short_set(100), long_set(100);
  for (int i = 0; i < 50; ++i) {
    CellStream s;
    s.enter_time = 0;
    s.cells.assign(3, 0);
    short_set.Add(std::move(s)).CheckOK();
    CellStream l;
    l.enter_time = 0;
    l.cells.assign(100, 0);
    long_set.Add(std::move(l)).CheckOK();
  }
  // All-short vs all-long lands in disjoint buckets: exactly ln 2, the value
  // the never-terminating baselines record in the paper's Table III.
  EXPECT_NEAR(LengthError(short_set, long_set), kLn2, 1e-9);
}

}  // namespace
}  // namespace retrasyn
