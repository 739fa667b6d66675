#include "stream/io.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "geo/grid.h"

namespace retrasyn {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

void WriteFile(const std::string& path, const std::string& content) {
  FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs(content.c_str(), f);
  std::fclose(f);
}

TEST(IoTest, LoadBasicStreams) {
  const std::string path = TempPath("basic.csv");
  WriteFile(path,
            "user_id,timestamp,x,y\n"
            "1,0,0.1,0.1\n"
            "1,1,0.2,0.2\n"
            "1,2,0.3,0.3\n"
            "2,1,0.9,0.9\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(db.value().streams().size(), 2u);
  EXPECT_EQ(db.value().num_timestamps(), 3);
  EXPECT_EQ(db.value().TotalPoints(), 4u);
}

TEST(IoTest, GapSplitsIntoMultipleStreams) {
  const std::string path = TempPath("gaps.csv");
  WriteFile(path,
            "7,0,0.0,0.0\n"
            "7,1,0.1,0.1\n"
            "7,5,0.5,0.5\n"   // gap: 2,3,4 missing
            "7,6,0.6,0.6\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db.value().streams().size(), 2u);
  const auto& s0 = db.value().streams()[0];
  const auto& s1 = db.value().streams()[1];
  EXPECT_EQ(s0.enter_time, 0);
  EXPECT_EQ(s0.points.size(), 2u);
  EXPECT_EQ(s1.enter_time, 5);
  EXPECT_EQ(s1.points.size(), 2u);
  EXPECT_NE(s0.user_id, s1.user_id);
}

TEST(IoTest, DuplicateTimestampsKeepFirst) {
  const std::string path = TempPath("dups.csv");
  WriteFile(path,
            "1,0,0.1,0.1\n"
            "1,1,0.2,0.2\n"
            "1,1,0.9,0.9\n"
            "1,2,0.3,0.3\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db.value().streams().size(), 1u);
  EXPECT_EQ(db.value().streams()[0].points.size(), 3u);
  EXPECT_DOUBLE_EQ(db.value().streams()[0].points[1].x, 0.2);
}

TEST(IoTest, UnsortedInputIsSorted) {
  const std::string path = TempPath("unsorted.csv");
  WriteFile(path,
            "1,2,0.3,0.3\n"
            "1,0,0.1,0.1\n"
            "1,1,0.2,0.2\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_TRUE(db.ok());
  ASSERT_EQ(db.value().streams().size(), 1u);
  EXPECT_DOUBLE_EQ(db.value().streams()[0].points[0].x, 0.1);
  EXPECT_DOUBLE_EQ(db.value().streams()[0].points[2].x, 0.3);
}

TEST(IoTest, ExplicitBoxAndHorizonOverride) {
  const std::string path = TempPath("opts.csv");
  WriteFile(path, "1,0,5.0,5.0\n1,1,6.0,6.0\n");
  ImportOptions options;
  options.box = BoundingBox{0.0, 0.0, 10.0, 10.0};
  options.num_timestamps = 8;
  auto db = LoadStreamDatabaseCsv(path, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().num_timestamps(), 8);
  EXPECT_DOUBLE_EQ(db.value().box().max_x, 10.0);
}

TEST(IoTest, RowsBeyondHorizonDropped) {
  const std::string path = TempPath("beyond.csv");
  WriteFile(path, "1,0,1.0,1.0\n1,1,2.0,2.0\n1,2,3.0,3.0\n");
  ImportOptions options;
  options.num_timestamps = 2;
  auto db = LoadStreamDatabaseCsv(path, options);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ(db.value().TotalPoints(), 2u);
}

TEST(IoTest, MalformedRowRejected) {
  const std::string path = TempPath("bad.csv");
  WriteFile(path, "1,0,oops,0.1\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoTest, ShortRowRejected) {
  const std::string path = TempPath("short.csv");
  WriteFile(path, "1,0,0.5\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_FALSE(db.ok());
}

TEST(IoTest, NegativeTimestampRejected) {
  const std::string path = TempPath("negt.csv");
  WriteFile(path, "1,-2,0.5,0.5\n");
  auto db = LoadStreamDatabaseCsv(path);
  ASSERT_FALSE(db.ok());
}

TEST(IoTest, MissingFileIsIOError) {
  auto db = LoadStreamDatabaseCsv("/no/such/file.csv");
  ASSERT_FALSE(db.ok());
  EXPECT_EQ(db.status().code(), StatusCode::kIOError);
}

TEST(IoTest, WriteThenLoadRoundTrip) {
  StreamDatabase db(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4);
  UserStream s;
  s.user_id = 9;
  s.enter_time = 1;
  s.points = {Point{0.25, 0.75}, Point{0.5, 0.5}};
  db.Add(s).CheckOK();
  const std::string path = TempPath("export.csv");
  ASSERT_TRUE(WriteStreamDatabaseCsv(db, path).ok());

  ImportOptions options;
  options.num_timestamps = 4;
  auto loaded = LoadStreamDatabaseCsv(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().streams().size(), 1u);
  EXPECT_EQ(loaded.value().streams()[0].enter_time, 1);
  EXPECT_NEAR(loaded.value().streams()[0].points[0].x, 0.25, 1e-6);
  EXPECT_NEAR(loaded.value().streams()[0].points[1].y, 0.5, 1e-6);
}

TEST(IoTest, WriteCellStreams) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 2);
  CellStreamSet set(3);
  CellStream s;
  s.enter_time = 0;
  s.cells = {0, 3};
  set.Add(s).CheckOK();
  const std::string path = TempPath("cells.csv");
  ASSERT_TRUE(WriteCellStreamsCsv(set, grid, path).ok());
  auto rows = ReadCsvFile(path);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 3u);  // header + 2 points
  EXPECT_EQ(rows.value()[1][2], "0");
  EXPECT_EQ(rows.value()[2][2], "3");
}

}  // namespace
}  // namespace retrasyn
