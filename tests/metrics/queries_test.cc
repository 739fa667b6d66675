#include "geo/grid.h"
#include "metrics/queries.h"

#include <gtest/gtest.h>

#include "common/rng.h"

namespace retrasyn {
namespace {

CellStreamSet MakeSet(int64_t horizon,
                      std::vector<std::pair<int64_t, std::vector<CellId>>>
                          specs) {
  CellStreamSet set(horizon);
  for (auto& [enter, cells] : specs) {
    CellStream s;
    s.enter_time = enter;
    s.cells = std::move(cells);
    set.Add(std::move(s)).CheckOK();
  }
  return set;
}

TEST(DensityIndexTest, PerTimestampCounts) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 2);
  const CellStreamSet set =
      MakeSet(3, {{0, {0, 1, 1}}, {1, {1, 3}}, {2, {2}}});
  const DensityIndex index(set, grid);
  EXPECT_EQ(index.DensityAt(0)[0], 1u);
  EXPECT_EQ(index.DensityAt(1)[1], 2u);
  EXPECT_EQ(index.DensityAt(2)[1], 1u);
  EXPECT_EQ(index.DensityAt(2)[3], 1u);
  EXPECT_EQ(index.DensityAt(2)[2], 1u);
}

TEST(DensityIndexTest, AggregateDensitySumsRange) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 2);
  const CellStreamSet set = MakeSet(3, {{0, {0, 0, 0}}, {0, {1, 1, 1}}});
  const DensityIndex index(set, grid);
  const auto agg = index.AggregateDensity(0, 2);
  EXPECT_DOUBLE_EQ(agg[0], 2.0);
  EXPECT_DOUBLE_EQ(agg[1], 2.0);
  EXPECT_DOUBLE_EQ(agg[2], 0.0);
}

TEST(DensityIndexTest, CountMatchesBruteForce) {
  // Property check: prefix-sum rectangle counts equal the naive scan.
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 6);
  Rng rng(3);
  CellStreamSet set(20);
  for (int i = 0; i < 150; ++i) {
    CellStream s;
    s.enter_time = rng.UniformInt(int64_t{0}, int64_t{15});
    const int len = 1 + static_cast<int>(rng.UniformInt(uint64_t{5}));
    for (int j = 0; j < len && s.enter_time + j < 20; ++j) {
      s.cells.push_back(
          static_cast<CellId>(rng.UniformInt(uint64_t{grid.NumCells()})));
    }
    if (!s.cells.empty()) set.Add(std::move(s)).CheckOK();
  }
  const DensityIndex index(set, grid);
  Rng qrng(4);
  const auto queries = GenerateRandomQueries(grid, 20, 5, 50, qrng);
  for (const RangeQuery& q : queries) {
    uint64_t brute = 0;
    for (const CellStream& s : set.streams()) {
      for (int64_t t = std::max(q.t_start, s.enter_time);
           t < std::min(q.t_end, s.end_time()); ++t) {
        const CellId c = s.At(t);
        const uint32_t r = grid.Row(c), col = grid.Col(c);
        if (r >= q.row_lo && r <= q.row_hi && col >= q.col_lo &&
            col <= q.col_hi) {
          ++brute;
        }
      }
    }
    EXPECT_EQ(index.Count(q), brute);
  }
}

TEST(DensityIndexTest, TotalPointsInRange) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 2);
  const CellStreamSet set = MakeSet(4, {{0, {0, 1}}, {2, {3, 3}}});
  const DensityIndex index(set, grid);
  EXPECT_EQ(index.TotalPointsIn(0, 4), 4u);
  EXPECT_EQ(index.TotalPointsIn(0, 2), 2u);
  EXPECT_EQ(index.TotalPointsIn(3, 10), 1u);  // clamped at horizon
}

TEST(QueryGenerationTest, BoundsRespected) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 10);
  Rng rng(5);
  const auto queries = GenerateRandomQueries(grid, 100, 10, 200, rng);
  ASSERT_EQ(queries.size(), 200u);
  for (const RangeQuery& q : queries) {
    EXPECT_LE(q.row_lo, q.row_hi);
    EXPECT_LE(q.col_lo, q.col_hi);
    EXPECT_LT(q.row_hi, 10u);
    EXPECT_LT(q.col_hi, 10u);
    EXPECT_LE(q.row_hi - q.row_lo + 1, 5u);  // edges at most K/2
    EXPECT_GE(q.t_start, 0);
    EXPECT_EQ(q.t_end - q.t_start, 10);
    EXPECT_LE(q.t_end, 100);
  }
}

TEST(QueryGenerationTest, PhiLargerThanHorizonStillValid) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4);
  Rng rng(6);
  const auto queries = GenerateRandomQueries(grid, 5, 50, 10, rng);
  for (const RangeQuery& q : queries) {
    EXPECT_EQ(q.t_start, 0);
  }
}

TEST(QueryGenerationTest, DeterministicGivenSeed) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 8);
  Rng a(7), b(7);
  const auto qa = GenerateRandomQueries(grid, 50, 5, 20, a);
  const auto qb = GenerateRandomQueries(grid, 50, 5, 20, b);
  for (size_t i = 0; i < qa.size(); ++i) {
    EXPECT_EQ(qa[i].row_lo, qb[i].row_lo);
    EXPECT_EQ(qa[i].col_hi, qb[i].col_hi);
    EXPECT_EQ(qa[i].t_start, qb[i].t_start);
  }
}

}  // namespace
}  // namespace retrasyn
