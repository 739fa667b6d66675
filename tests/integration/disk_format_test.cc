// Format pins for every byte the service writes to disk or hashes into an
// identity: the journal segment header and records, the journal BASE file,
// the framed checkpoint file, the history spill body, the grid Describe()
// blobs and the deployment fingerprint a service stamps into its journal.
// Each expectation is a hard-coded hex string, so a change of byte order,
// field order or width fails here even when every encoder and decoder still
// round-trips with its own counterpart. docs/durability.md describes the
// layouts.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common/file_io.h"
#include "geo/grid.h"
#include "geo/quadtree_grid.h"
#include "geo/state_space.h"
#include "journal/event_codec.h"
#include "journal/journal_compaction.h"
#include "journal/journal_writer.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

const BoundingBox kBox{0.0, 0.0, 400.0, 400.0};

class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-format-");
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = std::move(dir).value();
  }
  ~TempDir() { RemoveDirTree(path_).CheckOK(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xF]);
  }
  return out;
}

std::string ReadAll(const std::string& path) {
  auto contents = ReadFileToString(path);
  EXPECT_TRUE(contents.ok()) << contents.status().ToString();
  return contents.ok() ? contents.value() : std::string();
}

TEST(DiskFormatTest, SegmentHeader) {
  std::string out;
  AppendSegmentHeader(0x0123456789abcdefull, &out);
  EXPECT_EQ(Hex(out),
            "5253594e4a524e4c"    // magic "RSYNJRNL"
            "01"                  // version
            "efcdab8967452301");  // fingerprint, LE
}

TEST(DiskFormatTest, EnterRecord) {
  std::string enter;
  EncodeRecord(JournalEvent::Enter(300, Point{1.5, -2.25}), &enter);
  EXPECT_EQ(Hex(enter),
            "13"                  // payload length 19
            "01"                  // kEnter
            "ac02"                // user 300, varint
            "000000000000f83f"    // x = 1.5, IEEE-754 bits LE
            "00000000000002c0"    // y = -2.25
            "9d437a26");          // CRC32C(payload), LE
}

TEST(DiskFormatTest, JournalBaseFile) {
  TempDir dir;
  ASSERT_TRUE(WriteJournalBase(dir.path(), JournalBase{7, 42}).ok());
  EXPECT_EQ(Hex(ReadAll(dir.path() + "/" + kJournalBaseFileName)),
            "5253594e42415345"    // magic "RSYNBASE"
            "01"                  // version
            "0700000000000000"    // first_surviving_index
            "2a00000000000000"    // base_round
            "32091b35");          // CRC32C of everything before it
}

TEST(DiskFormatTest, FramedCheckpointFile) {
  TempDir dir;
  ASSERT_TRUE(WriteFramedFile(dir.path(), CheckpointFileName(5),
                              kCheckpointMagic, 0x0123456789abcdefull, "abc")
                  .ok());
  EXPECT_EQ(Hex(ReadAll(dir.path() + "/" + CheckpointFileName(5))),
            "5253594e434b5054"    // magic "RSYNCKPT"
            "02"                  // version
            "efcdab8967452301"    // fingerprint
            "0300000000000000"    // body length
            "616263"              // body
            "b73f4b36");          // CRC32C(body)
}

TEST(DiskFormatTest, HistoryBody) {
  std::vector<CellStream> streams(2);
  streams[0].enter_time = -1;
  streams[0].cells = {0, 200};
  streams[1].enter_time = 5;
  std::string out;
  EncodeHistoryBody(streams, &out);
  EXPECT_EQ(Hex(out),
            "02"                  // stream count
            "01" "02" "00" "c801" // zigzag(-1), 2 cells: 0, 200
            "0a" "00");           // zigzag(5), no cells
}

TEST(DiskFormatTest, UniformGridDescribe) {
  const UniformGrid grid(kBox, 4);
  EXPECT_EQ(Hex(grid.Describe()),
            "00"                  // GridBackend::kUniform
            "0000000000000000"    // min_x = 0
            "0000000000000000"    // min_y = 0
            "0000000000007940"    // max_x = 400
            "0000000000007940"    // max_y = 400
            "04000000");          // k
}

TEST(DiskFormatTest, QuadtreeDescribe) {
  // All mass in the south-west probe cell: the root splits, and so does its
  // first child, giving a 7-leaf tree with a 9-bit split structure.
  DensitySnapshot density;
  density.k = 4;
  density.counts.assign(16, 0.0);
  density.counts[0] = 10.0;
  QuadtreeConfig config;
  config.max_depth = 2;
  auto grid = QuadtreeGrid::Build(kBox, density, config);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_EQ(grid.value()->NumCells(), 7u);
  EXPECT_EQ(Hex(grid.value()->Describe()),
            "01"                  // GridBackend::kQuadtree
            "0000000000000000"    // min_x
            "0000000000000000"    // min_y
            "0000000000007940"    // max_x
            "0000000000007940"    // max_y
            "02000000"            // max_depth
            "07000000"            // leaves
            "09000000"            // split bits
            "0300");              // pre-order 1,1,0,0,0,0,0,0,0, LSB first
}

TEST(DiskFormatTest, DeploymentFingerprintInTheFirstSegmentHeader) {
  const UniformGrid grid(kBox, 3);
  const StateSpace states(grid);
  TempDir dir;
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 8;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 6.0;
  config.seed = 7;
  config.num_threads = 1;
  config.journal_dir = dir.path();
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
  }
  const std::string segment =
      ReadAll(dir.path() + "/" + JournalWriter::SegmentFileName(0));
  ASSERT_GE(segment.size(), kSegmentHeaderSize);
  EXPECT_EQ(Hex(segment.substr(0, kSegmentHeaderSize)),
            "5253594e4a524e4c"    // magic
            "01"                  // version
            "49406368c30f3a3c");  // DeploymentFingerprint(states, config)
}

}  // namespace
}  // namespace retrasyn
