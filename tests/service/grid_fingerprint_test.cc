// Fingerprint coverage for the spatial grid: the deployment fingerprint in
// journal segment headers and checkpoint frames hashes the grid's canonical
// Describe() bytes, so recovering durable state under a different
// discretization — a different backend, or even a quadtree with the same
// cell count but different splits — must fail with FailedPrecondition, never
// silently resolve events to different cells. The checkpoint body also
// round-trips the description verbatim, which keeps the refusal precise even
// against a fingerprint collision.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common/file_io.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "geo/quadtree_grid.h"
#include "geo/state_space.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

const BoundingBox kBox{0.0, 0.0, 400.0, 400.0};

class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-grid-fp-");
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = std::move(dir).value();
  }
  ~TempDir() { RemoveDirTree(path_).CheckOK(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

RetraSynConfig BaseConfig() {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 8;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 6.0;
  config.seed = 7;
  return config;
}

/// Drives \p rounds of a tiny deterministic workload: 6 users walking the
/// grid's own cell centers, so the script is valid for any backend.
void DriveRounds(IngestSession& session, const SpatialGrid& grid,
                 int64_t rounds) {
  const int64_t cells = static_cast<int64_t>(grid.NumCells());
  for (int64_t t = 0; t < rounds; ++t) {
    for (uint64_t u = 0; u < 6; ++u) {
      const Point p = grid.CellCenter(
          static_cast<CellId>((static_cast<int64_t>(u) * 7 + t) % cells));
      ASSERT_TRUE((t == 0 ? session.Enter(u, p) : session.Move(u, p)).ok());
    }
    ASSERT_TRUE(session.Tick().ok());
  }
}

/// All mass in one probe cell — two different corners give two quadtrees
/// with identical leaf counts but different split structures.
DensitySnapshot CornerDensity(uint32_t ix, uint32_t iy) {
  DensitySnapshot d;
  d.k = 8;
  d.counts.assign(64, 0.0);
  d.counts[static_cast<size_t>(iy) * 8 + ix] = 10.0;
  return d;
}

TEST(GridFingerprintTest, JournalRefusesRecoveryUnderADifferentBackend) {
  const UniformGrid uniform(kBox, 4);
  const StateSpace uniform_states(uniform);
  auto quad = MakeSpatialGrid(kBox, 4, GridBackend::kQuadtree);
  ASSERT_TRUE(quad.ok()) << quad.status().ToString();
  const StateSpace quad_states(*quad.value());

  // Journal written under the uniform grid: replaying it under the quadtree
  // would re-resolve every point; the fingerprint refuses instead.
  {
    TempDir dir;
    RetraSynConfig journaled = BaseConfig();
    journaled.journal_dir = dir.path() + "/journal";
    {
      auto service = TrajectoryService::Create(uniform_states, journaled);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      DriveRounds(service.value()->session(), uniform, 4);
    }
    auto refused = TrajectoryService::Recover(quad_states, journaled);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    // The matching deployment still recovers.
    EXPECT_TRUE(TrajectoryService::Recover(uniform_states, journaled).ok());
  }

  // And the reverse direction: a quadtree journal refuses a uniform replay.
  {
    TempDir dir;
    RetraSynConfig journaled = BaseConfig();
    journaled.journal_dir = dir.path() + "/journal";
    {
      auto service = TrajectoryService::Create(quad_states, journaled);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      DriveRounds(service.value()->session(), *quad.value(), 4);
    }
    auto refused = TrajectoryService::Recover(uniform_states, journaled);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_TRUE(TrajectoryService::Recover(quad_states, journaled).ok());
  }
}

TEST(GridFingerprintTest, JournalRefusesSameCellCountDifferentSplits) {
  // The hard case a |C|-only fingerprint would miss: two quadtrees with the
  // same backend, box, and leaf count whose split structures differ. The
  // fingerprint hashes the full Describe() blob, so it still refuses.
  QuadtreeConfig config;
  config.max_depth = 3;
  auto sw = QuadtreeGrid::Build(kBox, CornerDensity(0, 0), config);
  auto ne = QuadtreeGrid::Build(kBox, CornerDensity(7, 7), config);
  ASSERT_TRUE(sw.ok());
  ASSERT_TRUE(ne.ok());
  ASSERT_EQ(sw.value()->NumCells(), ne.value()->NumCells());
  ASSERT_NE(sw.value()->Describe(), ne.value()->Describe());
  const StateSpace sw_states(*sw.value());
  const StateSpace ne_states(*ne.value());

  TempDir dir;
  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path() + "/journal";
  {
    auto service = TrajectoryService::Create(sw_states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), *sw.value(), 4);
  }
  auto refused = TrajectoryService::Recover(ne_states, journaled);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);

  // An independently rebuilt grid from the same density recovers: the
  // fingerprint binds to the structure, not to the object instance.
  auto rebuilt = QuadtreeGrid::Build(kBox, CornerDensity(0, 0), config);
  ASSERT_TRUE(rebuilt.ok());
  const StateSpace rebuilt_states(*rebuilt.value());
  EXPECT_TRUE(TrajectoryService::Recover(rebuilt_states, journaled).ok());
}

TEST(GridFingerprintTest, CheckpointGridDescriptionIsVerifiedVerbatim) {
  // Beyond the hash: the checkpoint body carries the grid description
  // verbatim, and recovery compares the round-tripped bytes against the
  // running deployment. Forge a checkpoint whose frame fingerprint matches
  // (simulating a hash collision) but whose body was captured under the
  // uniform grid — recovery must still refuse, with a message naming the
  // spatial grid.
  auto quad = MakeSpatialGrid(kBox, 4, GridBackend::kQuadtree);
  ASSERT_TRUE(quad.ok());
  const StateSpace quad_states(*quad.value());
  const UniformGrid uniform(kBox, 4);
  const StateSpace uniform_states(uniform);

  TempDir quad_dir;
  RetraSynConfig quad_config = BaseConfig();
  quad_config.journal_dir = quad_dir.path() + "/journal";
  quad_config.checkpoint_dir = quad_dir.path() + "/ckpt";
  quad_config.checkpoint_every_rounds = 5;
  {
    auto service = TrajectoryService::Create(quad_states, quad_config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), *quad.value(), 11);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  TempDir uniform_dir;
  RetraSynConfig uniform_config = BaseConfig();
  uniform_config.journal_dir = uniform_dir.path() + "/journal";
  uniform_config.checkpoint_dir = uniform_dir.path() + "/ckpt";
  uniform_config.checkpoint_every_rounds = 5;
  {
    auto service = TrajectoryService::Create(uniform_states, uniform_config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), uniform, 11);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  // The quadtree deployment's own fingerprint, read off its latest frame.
  const std::string quad_latest =
      quad_config.checkpoint_dir + "/" + CheckpointFileName(10);
  uint64_t quad_fingerprint = 0;
  ASSERT_TRUE(ReadFramedFile(quad_latest, kCheckpointMagic, &quad_fingerprint)
                  .ok());
  // The uniform deployment's checkpoint body (uniform grid description
  // inside), re-framed with the quadtree deployment's fingerprint.
  uint64_t ignored = 0;
  auto uniform_body =
      ReadFramedFile(uniform_config.checkpoint_dir + "/" +
                         CheckpointFileName(10),
                     kCheckpointMagic, &ignored);
  ASSERT_TRUE(uniform_body.ok()) << uniform_body.status().ToString();
  ASSERT_TRUE(WriteFramedFile(quad_config.checkpoint_dir,
                              CheckpointFileName(10), kCheckpointMagic,
                              quad_fingerprint, uniform_body.value())
                  .ok());
  // The history spill files that body references go along, so the forged
  // checkpoint is complete and only its grid description can refuse it
  // (which rounds spill depends on the synthesis draws).
  CheckpointState uniform_state;
  ASSERT_TRUE(DecodeCheckpointBody(uniform_body.value().data(),
                                   uniform_body.value().size(), &uniform_state)
                  .ok());
  for (int64_t round : uniform_state.spill_rounds) {
    auto history = ReadFileToString(uniform_config.checkpoint_dir + "/" +
                                    HistoryFileName(round));
    ASSERT_TRUE(history.ok()) << history.status().ToString();
    ASSERT_TRUE(WriteFileAtomically(quad_config.checkpoint_dir,
                                    HistoryFileName(round), history.value())
                    .ok());
  }

  auto refused = TrajectoryService::Recover(quad_states, quad_config);
  ASSERT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("spatial grid"),
            std::string::npos)
      << refused.status().ToString();
}

}  // namespace
}  // namespace retrasyn
