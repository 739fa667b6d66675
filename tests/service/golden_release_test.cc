// Golden-bytes regression for the full service pipeline. The committed
// tests/golden/uniform_k4.golden was captured from the pre-SpatialGrid tree
// (uniform 4x4 grid, the pinned workload/config of golden_pipeline.h); every
// scenario here must keep producing those exact bytes, so any refactor of the
// grid seam, the engine, the sink path, or the durability stack that perturbs
// uniform-grid released bytes fails loudly. The quadtree scenario has no
// pre-refactor golden to pin against; it asserts the equally strong internal
// invariant — kill-and-recover byte-identity against an uninterrupted run —
// end to end through journal + checkpoints.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "core/release_server.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "geo/state_space.h"
#include "golden/golden_pipeline.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

using golden::DriveGoldenRounds;
using golden::GoldenConfig;
using golden::GoldenTrace;
using golden::GoldenWorkload;
using golden::kGoldenHorizon;
using golden::SerializeGoldenRelease;

const BoundingBox kBox{0.0, 0.0, 400.0, 400.0};

class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-golden-");
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = std::move(dir).value();
  }
  ~TempDir() { RemoveDirTree(path_).CheckOK(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string LoadGoldenBytes() {
  auto bytes =
      ReadFileToString(std::string(RETRASYN_TESTDATA_DIR) +
                       "/golden/uniform_k4.golden");
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? bytes.value() : std::string();
}

TEST(GoldenReleaseTest, InlinePipelineMatchesPreRefactorBytes) {
  const std::string want = LoadGoldenBytes();
  ASSERT_FALSE(want.empty());

  const UniformGrid grid(kBox, 4);
  const StateSpace states(grid);
  auto service = TrajectoryService::Create(states, GoldenConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ReleaseServer server(grid);
  service.value()->AddSink(&server);
  ASSERT_TRUE(DriveGoldenRounds(service.value()->session(), GoldenWorkload(),
                                0, kGoldenHorizon));
  auto snapshot = service.value()->SnapshotRelease();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(SerializeGoldenRelease(server, snapshot.value()), want);
}

TEST(GoldenReleaseTest, AsyncPipelineMatchesPreRefactorBytes) {
  // The async round closer is a delivery mechanism, not a behavior: the
  // released bytes must equal the inline golden exactly.
  const std::string want = LoadGoldenBytes();
  ASSERT_FALSE(want.empty());

  const UniformGrid grid(kBox, 4);
  const StateSpace states(grid);
  RetraSynConfig config = GoldenConfig();
  config.sync_policy = SyncPolicy::kAsync;
  auto service = TrajectoryService::Create(states, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ReleaseServer server(grid);
  service.value()->AddSink(&server);
  ASSERT_TRUE(DriveGoldenRounds(service.value()->session(), GoldenWorkload(),
                                0, kGoldenHorizon));
  ASSERT_TRUE(service.value()->Drain().ok());
  auto snapshot = service.value()->SnapshotRelease();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(SerializeGoldenRelease(server, snapshot.value()), want);
}

TEST(GoldenReleaseTest, KillAndRecoverMatchesPreRefactorBytes) {
  // Crash mid-run, recover from the journal, finish the workload: the
  // surviving downstream server (a separate process in production) plus the
  // recovered snapshot must still serialize to the pre-refactor golden.
  const std::string want = LoadGoldenBytes();
  ASSERT_FALSE(want.empty());

  const UniformGrid grid(kBox, 4);
  const StateSpace states(grid);
  const auto traces = GoldenWorkload();
  TempDir dir;
  RetraSynConfig journaled = GoldenConfig();
  journaled.journal_dir = dir.path() + "/journal";
  constexpr int64_t kCrashAt = 12;

  ReleaseServer server(grid);  // outlives the crashed service
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service.value()->AddSink(&server);
    ASSERT_TRUE(DriveGoldenRounds(service.value()->session(), traces, 0,
                                  kCrashAt));
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  recovered.value()->AddSink(&server);  // resumes at round kCrashAt
  ASSERT_TRUE(DriveGoldenRounds(recovered.value()->session(), traces, kCrashAt,
                                kGoldenHorizon));
  auto snapshot = recovered.value()->SnapshotRelease();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(SerializeGoldenRelease(server, snapshot.value()), want);
}

TEST(GoldenReleaseTest, QuadtreeKillAndRecoverIsByteIdentical) {
  // The quadtree backend end to end: ingest the golden workload, journal,
  // checkpoint, crash, recover, continue — and serialize byte-identically to
  // the uninterrupted quadtree run.
  auto grid_owner = MakeSpatialGrid(kBox, 4, GridBackend::kQuadtree);
  ASSERT_TRUE(grid_owner.ok()) << grid_owner.status().ToString();
  const SpatialGrid& grid = *grid_owner.value();
  ASSERT_EQ(grid.backend(), GridBackend::kQuadtree);
  const StateSpace states(grid);
  const auto traces = GoldenWorkload();
  TempDir dir;
  RetraSynConfig durable = GoldenConfig();
  durable.journal_dir = dir.path() + "/journal";
  durable.checkpoint_dir = dir.path() + "/ckpt";
  durable.checkpoint_every_rounds = 5;
  constexpr int64_t kCrashAt = 12;

  ReleaseServer server(grid);
  {
    auto service = TrajectoryService::Create(states, durable);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    service.value()->AddSink(&server);
    ASSERT_TRUE(DriveGoldenRounds(service.value()->session(), traces, 0,
                                  kCrashAt));
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  auto recovered = TrajectoryService::Recover(states, durable);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  recovered.value()->AddSink(&server);
  ASSERT_TRUE(DriveGoldenRounds(recovered.value()->session(), traces, kCrashAt,
                                kGoldenHorizon));
  auto got_snapshot = recovered.value()->SnapshotRelease();
  ASSERT_TRUE(got_snapshot.ok()) << got_snapshot.status().ToString();
  const std::string got = SerializeGoldenRelease(server, got_snapshot.value());

  // The uninterrupted reference (no journal, no checkpoints).
  auto reference = TrajectoryService::Create(states, GoldenConfig());
  ASSERT_TRUE(reference.ok());
  ReleaseServer reference_server(grid);
  reference.value()->AddSink(&reference_server);
  ASSERT_TRUE(DriveGoldenRounds(reference.value()->session(), traces, 0,
                                kGoldenHorizon));
  auto want_snapshot = reference.value()->SnapshotRelease();
  ASSERT_TRUE(want_snapshot.ok());
  EXPECT_EQ(got,
            SerializeGoldenRelease(reference_server, want_snapshot.value()));

  // And the quadtree release is genuinely different bytes from the uniform
  // golden — the backend changes the discretization, never silently no-ops.
  EXPECT_NE(got, LoadGoldenBytes());
}

}  // namespace
}  // namespace retrasyn
