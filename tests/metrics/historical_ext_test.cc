// Tests for the extended historical metrics (diameter error) and the
// raw-time import alignment.

#include <cstdio>

#include <gtest/gtest.h>

#include "geo/grid.h"
#include "metrics/historical.h"
#include "stream/io.h"

namespace retrasyn {
namespace {

constexpr double kLn2 = 0.6931471805599453;

CellStream MakeStream(std::vector<CellId> cells, int64_t enter = 0) {
  CellStream s;
  s.enter_time = enter;
  s.cells = std::move(cells);
  return s;
}

TEST(DiameterErrorTest, IdenticalSetsAreZero) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4);
  CellStreamSet set(5);
  set.Add(MakeStream({0, 1, 2, 3})).CheckOK();
  set.Add(MakeStream({5, 5, 5})).CheckOK();
  EXPECT_DOUBLE_EQ(DiameterError(set, set, grid), 0.0);
}

TEST(DiameterErrorTest, StationaryVsCrossingIsMaximal) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4);
  CellStreamSet stay(5), cross(5);
  for (int i = 0; i < 20; ++i) {
    stay.Add(MakeStream({5, 5, 5})).CheckOK();  // diameter 0
    // Corner-to-corner walkers: diameter = full diagonal.
    cross.Add(MakeStream({grid.Cell(0, 0), grid.Cell(1, 1), grid.Cell(2, 2),
                          grid.Cell(3, 3)})).CheckOK();
  }
  EXPECT_NEAR(DiameterError(stay, cross, grid), kLn2, 1e-9);
}

TEST(DiameterErrorTest, DiameterUsesMaxPairNotBoundingBoxCorners) {
  // A diamond-shaped visit set: the bbox diagonal would overestimate the
  // true max pairwise distance. Both sets have the same true diameter, so
  // the error must be 0.
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 5);
  CellStreamSet diamond(5), straight(5);
  for (int i = 0; i < 10; ++i) {
    diamond.Add(MakeStream({grid.Cell(0, 2), grid.Cell(2, 0), grid.Cell(2, 4),
                            grid.Cell(4, 2)})).CheckOK();
    // Straight horizontal walk with the same max pairwise distance (4 cells).
    straight.Add(MakeStream({grid.Cell(2, 0), grid.Cell(2, 2),
                             grid.Cell(2, 4)})).CheckOK();
  }
  EXPECT_NEAR(DiameterError(diamond, straight, grid), 0.0, 1e-9);
}

TEST(ImportAlignmentTest, GranularityBinsTimestamps) {
  const std::string path = testing::TempDir() + "/align_gran.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // Reports every 600 "seconds": bins 0,1,2 with a duplicate in bin 1.
  std::fputs("1,0,0.1,0.1\n1,650,0.2,0.2\n1,700,0.9,0.9\n1,1250,0.3,0.3\n",
             f);
  std::fclose(f);
  ImportOptions options;
  options.time_granularity = 600;
  auto db = LoadStreamDatabaseCsv(path, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db.value().streams().size(), 1u);
  const UserStream& s = db.value().streams()[0];
  EXPECT_EQ(s.enter_time, 0);
  ASSERT_EQ(s.points.size(), 3u);
  // Earliest report per bin wins: bin 1 keeps (0.2, 0.2).
  EXPECT_DOUBLE_EQ(s.points[1].x, 0.2);
  EXPECT_EQ(db.value().num_timestamps(), 3);
}

TEST(ImportAlignmentTest, AlignToZeroShiftsEpochTimes) {
  const std::string path = testing::TempDir() + "/align_epoch.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  // Epoch-like large timestamps, 600 s granularity.
  std::fputs(
      "7,1700000000,1.0,1.0\n"
      "7,1700000600,2.0,2.0\n"
      "7,1700001800,3.0,3.0\n",  // gap of one bin -> split
      f);
  std::fclose(f);
  ImportOptions options;
  options.time_granularity = 600;
  options.align_to_zero = true;
  auto db = LoadStreamDatabaseCsv(path, options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_EQ(db.value().streams().size(), 2u);  // gap split
  EXPECT_EQ(db.value().streams()[0].enter_time, 0);
  EXPECT_EQ(db.value().streams()[1].enter_time, 3);
  EXPECT_EQ(db.value().num_timestamps(), 4);
}

TEST(ImportAlignmentTest, GranularityOneIsIdentity) {
  const std::string path = testing::TempDir() + "/align_id.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1,3,0.5,0.5\n1,4,0.6,0.6\n", f);
  std::fclose(f);
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().streams()[0].enter_time, 3);
}

TEST(ImportAlignmentTest, InvalidGranularityRejected) {
  const std::string path = testing::TempDir() + "/align_bad.csv";
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("1,0,0.5,0.5\n", f);
  std::fclose(f);
  ImportOptions options;
  options.time_granularity = 0;
  auto db = LoadStreamDatabaseCsv(path, options);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace retrasyn
