// Acceptance tests for the checkpoint + journal compaction subsystem: a
// checkpointed service must recover byte-identically to full-journal replay
// (and to an uninterrupted run), survive corrupted checkpoints by falling
// back, refuse foreign deployments loudly, poison cleanly on checkpoint I/O
// failure without endangering the journal, and keep snapshots complete while
// closed-stream history lives in spill files.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common/file_io.h"
#include "common/thread_pool.h"
#include "core/synthesizer.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "journal/journal_compaction.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-ckpt-recovery-");
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

/// BaseConfig plus durability: journal under <parent>/journal, checkpoints
/// under <parent>/ckpt, every 5 rounds.
RetraSynConfig CheckpointedConfig(const std::string& parent) {
  RetraSynConfig config = BaseConfig();
  config.journal_dir = parent + "/journal";
  config.checkpoint_dir = parent + "/ckpt";
  config.checkpoint_every_rounds = 5;
  return config;
}

/// Drives rounds [from, to) of a steady-churn workload (same shape as
/// recovery_test.cc): `churn` fresh users enter per round, each living
/// live/churn rounds. Pure function of t, so it resumes on a recovered
/// service.
void DriveChurnRounds(IngestSession& session, const SpatialGrid& grid, int64_t from,
                      int64_t to, int64_t live, int64_t churn) {
  const int64_t lifetime = live / churn;
  const int64_t cells = static_cast<int64_t>(grid.NumCells());
  auto at = [&](int64_t u, int64_t t) {
    return grid.CellCenter(static_cast<CellId>((u * 7 + t) % cells));
  };
  for (int64_t t = from; t < to; ++t) {
    const int64_t first = std::max<int64_t>(0, (t - lifetime) * churn);
    for (int64_t u = first; u < (t + 1) * churn; ++u) {
      const int64_t entered = u / churn;
      if (entered == t) {
        ASSERT_TRUE(session.Enter(static_cast<uint64_t>(u), at(u, t)).ok());
      } else if (t < entered + lifetime) {
        ASSERT_TRUE(session.Move(static_cast<uint64_t>(u), at(u, t)).ok());
      } else if (t == entered + lifetime) {
        ASSERT_TRUE(session.Quit(static_cast<uint64_t>(u)).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
}

void ExpectSameRelease(const CellStreamSet& a, const CellStreamSet& b) {
  ASSERT_EQ(a.num_timestamps(), b.num_timestamps());
  ASSERT_EQ(a.streams().size(), b.streams().size());
  ASSERT_EQ(a.TotalPoints(), b.TotalPoints());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time)
        << "stream " << i;
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells) << "stream " << i;
  }
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

/// Copies every regular file of \p src into \p dst (flat directories only).
void CopyDir(const std::string& src, const std::string& dst) {
  ASSERT_TRUE(CreateDirIfMissing(dst).ok());
  auto names = ListDirectory(src);
  ASSERT_TRUE(names.ok()) << names.status().ToString();
  for (const std::string& name : names.value()) {
    auto contents = ReadFileToString(src + "/" + name);
    ASSERT_TRUE(contents.ok()) << name;
    WriteBytes(dst + "/" + name, contents.value());
  }
}

bool FileExists(const std::string& path) { return FileSize(path).ok(); }

TEST(CheckpointRecoveryTest, KillRecoverContinueByteIdenticalInline) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int64_t kLive = 20, kChurn = 4, kCrashAt = 32, kRounds = 44;

  const RetraSynConfig config = CheckpointedConfig(parent.path());
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    ASSERT_NE(service.value()->checkpoint(), nullptr);
    DriveChurnRounds(service.value()->session(), grid, 0, kCrashAt, kLive,
                     kChurn);
    ASSERT_TRUE(service.value()->Drain().ok());
    // Checkpoints landed (rounds 5..30 due; retention keeps the newest 2).
    EXPECT_GE(service.value()->checkpoint()->checkpoints_written(), 6u);
    EXPECT_EQ(service.value()->checkpoint()->last_checkpoint_round(), 30);
    EXPECT_GT(service.value()->checkpoint()->streams_spilled(), 0u);
  }

  auto recovered = TrajectoryService::Recover(states, config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  ASSERT_NE(recovered.value()->checkpoint(), nullptr);
  EXPECT_EQ(recovered.value()->checkpoint()->last_checkpoint_round(), 30);
  DriveChurnRounds(recovered.value()->session(), grid, kCrashAt, kRounds,
                   kLive, kChurn);
  ASSERT_TRUE(recovered.value()->Drain().ok());

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, kRounds, kLive,
                   kChurn);

  // Index lifecycle matches the uninterrupted run exactly...
  const IngestSession& got_session = recovered.value()->session();
  const IngestSession& want_session = reference.value()->session();
  EXPECT_EQ(got_session.index_high_water(), want_session.index_high_water());
  EXPECT_EQ(got_session.num_free_indices(), want_session.num_free_indices());
  EXPECT_EQ(got_session.num_retiring_indices(),
            want_session.num_retiring_indices());
  // ...and the released bytes — served partly from spill files — are
  // identical to the spill-less uninterrupted run.
  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());

  // A second recovery (spanning both incarnations' segments) agrees too.
  recovered.value().reset();
  auto again = TrajectoryService::Recover(states, config);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again.value()->rounds_closed(), kRounds);
  auto got2 = again.value()->SnapshotRelease();
  ASSERT_TRUE(got2.ok());
  ExpectSameRelease(got2.value(), want.value());
}

TEST(CheckpointRecoveryTest, AsyncCheckpointedRecoverMatchesInline) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int64_t kLive = 16, kChurn = 4, kCrashAt = 23, kRounds = 34;

  RetraSynConfig config = CheckpointedConfig(parent.path());
  config.sync_policy = SyncPolicy::kAsync;
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, kCrashAt, kLive,
                     kChurn);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  auto recovered = TrajectoryService::Recover(states, config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveChurnRounds(recovered.value()->session(), grid, kCrashAt, kRounds,
                   kLive, kChurn);
  ASSERT_TRUE(recovered.value()->Drain().ok());

  auto reference = TrajectoryService::Create(states, BaseConfig());  // inline
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, kRounds, kLive,
                   kChurn);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(CheckpointRecoveryTest, CompactionRetiresThePrefixAndRecoveryHolds) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int64_t kLive = 20, kChurn = 4, kRounds = 60;

  RetraSynConfig config = CheckpointedConfig(parent.path());
  config.checkpoint_every_rounds = 10;
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, kRounds, kLive,
                     kChurn);
    ASSERT_TRUE(service.value()->Drain().ok());
    // Compaction actually retired sealed prefix segments and declared the
    // new base.
    EXPECT_GT(service.value()->checkpoint()->segments_retired(), 0u);
  }
  EXPECT_TRUE(FileExists(config.journal_dir + "/" + kJournalBaseFileName));
  EXPECT_FALSE(
      FileExists(config.journal_dir + "/" + JournalWriter::SegmentFileName(0)));

  // Full replay of the compacted journal is impossible — recovery without a
  // checkpoint must say so, not silently serve a truncated history.
  {
    RetraSynConfig no_checkpoint = config;
    no_checkpoint.checkpoint_every_rounds = 0;
    no_checkpoint.checkpoint_dir.clear();
    auto refused = TrajectoryService::Recover(states, no_checkpoint);
    EXPECT_EQ(refused.status().code(), StatusCode::kIOError);
  }

  auto recovered = TrajectoryService::Recover(states, config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kRounds);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, kRounds, kLive,
                   kChurn);
  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(CheckpointRecoveryTest, ShardedSegmentsEndAtCheckpointRounds) {
  // Every shard journal ends a segment exactly at each checkpoint round, so
  // compaction retires the same whole-segment prefix in every shard.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int kShards = 3;
  constexpr int64_t kEvery = 5, kRounds = 33;

  RetraSynConfig config = CheckpointedConfig(parent.path());
  config.ingest_shards = kShards;
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, kRounds, 20, 4);
    ASSERT_TRUE(service.value()->Drain().ok());
    EXPECT_GT(service.value()->checkpoint()->segments_retired(), 0u);
  }
  for (int shard = 0; shard < kShards; ++shard) {
    SCOPED_TRACE("shard " + std::to_string(shard));
    auto scan = JournalReader::ScanDir(config.journal_dir + "/" +
                                       ShardJournalDirName(shard));
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    const std::vector<ScannedSegment>& segments = scan.value().segments;
    ASSERT_GE(segments.size(), 2u);
    // Checkpoints at 25 and 30 are retained; window 8 keeps rounds from 17,
    // so the segments ending at 5, 10 and 15 are retired.
    EXPECT_EQ(scan.value().base_round, 15);
    for (size_t i = 0; i + 1 < segments.size(); ++i) {
      EXPECT_EQ(segments[i].end_round % kEvery, 0)
          << "segment " << segments[i].index;
    }
    EXPECT_EQ(segments.back().end_round, kRounds);
  }
}

TEST(CheckpointRecoveryTest, TruncatedNewestCheckpointFallsBackToPrevious) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int64_t kLive = 8, kChurn = 2, kRounds = 12;

  RetraSynConfig config = CheckpointedConfig(parent.path());
  config.checkpoint_every_rounds = 4;  // checkpoints at 4, 8, 12; retain 8, 12
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, kRounds, kLive,
                     kChurn);
    ASSERT_TRUE(service.value()->Drain().ok());
    ASSERT_EQ(service.value()->checkpoint()->last_checkpoint_round(), 12);
  }

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, kRounds, kLive,
                   kChurn);
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(want.ok());

  const std::string newest = CheckpointFileName(12);
  auto full = ReadFileToString(config.checkpoint_dir + "/" + newest);
  ASSERT_TRUE(full.ok());
  const std::string& bytes = full.value();
  ASSERT_GT(bytes.size(), 100u);

  // Truncate the newest checkpoint at EVERY byte offset: recovery must
  // always succeed by deleting it and falling back to checkpoint 8, and the
  // recovered state must stay byte-identical to the uninterrupted run.
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    TempDir work;
    RetraSynConfig damaged = CheckpointedConfig(work.path());
    damaged.checkpoint_every_rounds = 4;
    CopyDir(config.journal_dir, damaged.journal_dir);
    CopyDir(config.checkpoint_dir, damaged.checkpoint_dir);
    WriteBytes(damaged.checkpoint_dir + "/" + newest, bytes.substr(0, cut));

    auto recovered = TrajectoryService::Recover(states, damaged);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.status().ToString();
    EXPECT_EQ(recovered.value()->rounds_closed(), kRounds) << "cut=" << cut;
    // The damaged newest checkpoint was discarded; the previous one carried
    // recovery.
    EXPECT_EQ(recovered.value()->checkpoint()->last_checkpoint_round(), 8)
        << "cut=" << cut;
    EXPECT_FALSE(FileExists(damaged.checkpoint_dir + "/" + newest))
        << "cut=" << cut;
    // Byte-identity on a sample of cuts (every cut costs a full snapshot).
    if (cut % 41 == 0 || cut + 1 == bytes.size()) {
      auto got = recovered.value()->SnapshotRelease();
      ASSERT_TRUE(got.ok()) << "cut=" << cut;
      ExpectSameRelease(got.value(), want.value());
    }
  }
}

TEST(CheckpointRecoveryTest, ValidForeignCheckpointIsRefusedLoudly) {
  // A checkpoint that is structurally INTACT but stamped by a different
  // deployment must fail recovery with FailedPrecondition — never silently
  // fall back to replay (the satellite requirement: no silent fallback).
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;

  const RetraSynConfig config = CheckpointedConfig(parent.path());
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, 10, 8, 2);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  // Re-frame the newest checkpoint under a different fingerprint, leaving
  // its body bit-identical (so every structural check still passes).
  const std::string path = config.checkpoint_dir + "/" + CheckpointFileName(10);
  uint64_t fingerprint = 0;
  auto body = ReadFramedFile(path, kCheckpointMagic, &fingerprint);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  ASSERT_TRUE(WriteFramedFile(config.checkpoint_dir, CheckpointFileName(10),
                              kCheckpointMagic, fingerprint + 1, body.value())
                  .ok());

  auto refused = TrajectoryService::Recover(states, config);
  EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
  // The foreign checkpoint was not deleted — refusal is diagnosable.
  EXPECT_TRUE(FileExists(path));
}

TEST(CheckpointRecoveryTest, ChangedDeploymentIsRefusedLoudly) {
  // Changing the grid or an engine-config field between the crash and the
  // recovery must refuse, not replay-and-diverge.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;

  const RetraSynConfig config = CheckpointedConfig(parent.path());
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, 10, 8, 2);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  RetraSynConfig reseeded = config;
  reseeded.seed = config.seed + 1;
  EXPECT_EQ(TrajectoryService::Recover(states, reseeded).status().code(),
            StatusCode::kFailedPrecondition);

  RetraSynConfig alpha = config;
  alpha.allocation.alpha = 2.0;
  ASSERT_NE(alpha.allocation.alpha, config.allocation.alpha);
  EXPECT_EQ(TrajectoryService::Recover(states, alpha).status().code(),
            StatusCode::kFailedPrecondition);

  const UniformGrid finer(box, 6);
  const StateSpace finer_states(finer);
  EXPECT_EQ(TrajectoryService::Recover(finer_states, config).status().code(),
            StatusCode::kFailedPrecondition);

  // The unchanged deployment still recovers.
  EXPECT_TRUE(TrajectoryService::Recover(states, config).ok());
}

TEST(CheckpointRecoveryTest,
     AutoThreadCountResolvedOnAnotherPoolRecoversByteIdentically) {
  // num_threads = 0 behind a checkpoint: the checkpointed engine state and
  // the journal suffix were produced on a 2-thread pool. The synthesis
  // chunks follow the live-stream count alone, so recovery on a 4-thread
  // pool continues exactly like an uninterrupted serial run. 9000 live
  // streams run 4 chunks per round.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int64_t kLive = 9000, kChurn = 900, kCrashAt = 12, kRounds = 15;

  RetraSynConfig config = CheckpointedConfig(parent.path());
  config.num_threads = 0;
  config.thread_pool = std::make_shared<ThreadPool>(2);
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, kCrashAt, kLive,
                     kChurn);
    ASSERT_TRUE(service.value()->Drain().ok());
    ASSERT_EQ(service.value()->checkpoint()->last_checkpoint_round(), 10);
  }

  RetraSynConfig wider = config;
  wider.thread_pool = std::make_shared<ThreadPool>(4);
  auto recovered = TrajectoryService::Recover(states, wider);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->checkpoint()->last_checkpoint_round(), 10);
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveChurnRounds(recovered.value()->session(), grid, kCrashAt, kRounds,
                   kLive, kChurn);
  EXPECT_GE(Synthesizer::EffectiveChunks(recovered.value()
                                             ->retrasyn_engine()
                                             ->synthesizer()
                                             .num_live()),
            4);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, kRounds, kLive,
                   kChurn);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(CheckpointRecoveryTest, CheckpointDirDeletedMidRunPoisonsTicksOnly) {
  // The satellite regression: deleting the checkpoint directory mid-run must
  // fail the next Tick cleanly (sticky, no aborts), leave the journal intact
  // and snapshots complete, and the deployment fully recoverable.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  constexpr int64_t kLive = 8, kChurn = 2;

  RetraSynConfig config = CheckpointedConfig(parent.path());
  config.checkpoint_every_rounds = 3;
  auto service = TrajectoryService::Create(states, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DriveChurnRounds(service.value()->session(), grid, 0, 2, kLive, kChurn);

  // Pull the checkpoint directory out from under the worker.
  ASSERT_TRUE(RemoveDirTree(config.checkpoint_dir).ok());

  // Drive until the due checkpoint's write failure surfaces on a Tick. The
  // workload itself stays valid (Moves only), so the only failure mode is
  // the poisoned checkpoint subsystem.
  IngestSession& session = service.value()->session();
  Status failure;
  for (int64_t t = 0; t < 100 && failure.ok(); ++t) {
    for (uint64_t u = 0; u < 4 && failure.ok(); ++u) {
      failure = session.Move(u, grid.CellCenter(0));
    }
    if (failure.ok()) failure = session.Tick();
  }
  ASSERT_FALSE(failure.ok()) << "a deleted checkpoint dir must poison Tick";
  EXPECT_EQ(failure.code(), StatusCode::kIOError);

  // Sticky: further Ticks are refused with the same error, rounds stop.
  const int64_t rounds = service.value()->rounds_closed();
  EXPECT_EQ(session.Tick().code(), StatusCode::kIOError);
  EXPECT_EQ(service.value()->rounds_closed(), rounds);
  EXPECT_EQ(service.value()->Drain().code(), StatusCode::kIOError);

  // Snapshots stay complete: streams taken for spilling before the failure
  // are still served from memory.
  auto poisoned_snapshot = service.value()->SnapshotRelease();
  ASSERT_TRUE(poisoned_snapshot.ok()) << poisoned_snapshot.status().ToString();

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, 2, kLive, kChurn);
  {
    IngestSession& ref_session = reference.value()->session();
    for (int64_t t = 0; t < rounds - 2; ++t) {
      for (uint64_t u = 0; u < 4; ++u) {
        ASSERT_TRUE(ref_session.Move(u, grid.CellCenter(0)).ok());
      }
      ASSERT_TRUE(ref_session.Tick().ok());
    }
  }
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(poisoned_snapshot.value(), want.value());

  // The journal never suffered: recovery into a fresh checkpoint dir
  // reproduces every durable round byte for byte.
  service.value().reset();
  RetraSynConfig recover_config = config;
  recover_config.checkpoint_dir = parent.path() + "/ckpt2";
  auto recovered = TrajectoryService::Recover(states, recover_config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_closed(), rounds);
  auto got = recovered.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(CheckpointRecoveryTest, OrphanedTmpFilesAreCleanedUpOnRecovery) {
  // A crash mid-compaction (or mid-checkpoint) leaves `*.tmp` files that
  // never renamed into place; both scanners must delete them and carry on.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;

  const RetraSynConfig config = CheckpointedConfig(parent.path());
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, 10, 8, 2);
    ASSERT_TRUE(service.value()->Drain().ok());
  }
  WriteBytes(config.checkpoint_dir + "/" + CheckpointFileName(15) + ".tmp",
             "torn checkpoint");
  WriteBytes(config.checkpoint_dir + "/" + HistoryFileName(15) + ".tmp",
             "torn history");
  WriteBytes(config.journal_dir + "/" + JournalWriter::SegmentFileName(9) +
                 ".tmp",
             "torn segment");
  WriteBytes(config.journal_dir + "/" + std::string(kJournalBaseFileName) +
                 ".tmp",
             "torn base");

  auto recovered = TrajectoryService::Recover(states, config);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_closed(), 10);
  for (const std::string& dir : {config.checkpoint_dir, config.journal_dir}) {
    auto names = ListDirectory(dir);
    ASSERT_TRUE(names.ok());
    for (const std::string& name : names.value()) {
      EXPECT_EQ(name.find(".tmp"), std::string::npos) << dir << "/" << name;
    }
  }
}

TEST(CheckpointRecoveryTest, SpillOnAndOffReleaseIdenticalBytes) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir spill_parent;
  TempDir no_spill_parent;
  constexpr int64_t kLive = 12, kChurn = 3, kRounds = 20;

  RetraSynConfig spill = CheckpointedConfig(spill_parent.path());
  RetraSynConfig no_spill = CheckpointedConfig(no_spill_parent.path());
  no_spill.checkpoint_spill_history = false;

  auto a = TrajectoryService::Create(states, spill);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  DriveChurnRounds(a.value()->session(), grid, 0, kRounds, kLive, kChurn);
  ASSERT_TRUE(a.value()->Drain().ok());
  EXPECT_GT(a.value()->checkpoint()->streams_spilled(), 0u);
  EXPECT_TRUE(a.value()->checkpoint()->has_spilled_history());

  auto b = TrajectoryService::Create(states, no_spill);
  ASSERT_TRUE(b.ok());
  DriveChurnRounds(b.value()->session(), grid, 0, kRounds, kLive, kChurn);
  ASSERT_TRUE(b.value()->Drain().ok());
  EXPECT_EQ(b.value()->checkpoint()->streams_spilled(), 0u);
  EXPECT_FALSE(b.value()->checkpoint()->has_spilled_history());

  auto plain = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(plain.ok());
  DriveChurnRounds(plain.value()->session(), grid, 0, kRounds, kLive, kChurn);

  auto got_a = a.value()->SnapshotRelease();
  auto got_b = b.value()->SnapshotRelease();
  auto want = plain.value()->SnapshotRelease();
  ASSERT_TRUE(got_a.ok()) << got_a.status().ToString();
  ASSERT_TRUE(got_b.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got_a.value(), want.value());
  ExpectSameRelease(got_b.value(), want.value());
}

/// Minimal non-RetraSyn engine for the checkpointability guard.
class NullEngine : public StreamReleaseEngine {
 public:
  void Observe(const TimestampBatch&) override {}
  CellStreamSet SnapshotRelease(int64_t n) const override {
    return CellStreamSet(n);
  }
  std::vector<uint32_t> LiveDensity() const override { return {0}; }
  std::string name() const override { return "null-engine"; }
};

TEST(CheckpointRecoveryTest, GuardsRefuseUncheckpointableConfigurations) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;

  // Checkpointing without a journal is meaningless — a checkpoint only
  // bridges recovery to the journal suffix behind it.
  RetraSynConfig no_journal = BaseConfig();
  no_journal.checkpoint_dir = parent.path() + "/ckpt";
  no_journal.checkpoint_every_rounds = 5;
  EXPECT_EQ(TrajectoryService::Create(states, no_journal).status().code(),
            StatusCode::kInvalidArgument);

  // ...and without a checkpoint directory there is nowhere to write.
  RetraSynConfig no_dir = BaseConfig();
  no_dir.journal_dir = parent.path() + "/journal";
  no_dir.checkpoint_every_rounds = 5;
  EXPECT_EQ(TrajectoryService::Create(states, no_dir).status().code(),
            StatusCode::kInvalidArgument);

  // Custom engines have no serializable state; the guard refuses instead of
  // crashing at the first due round.
  ServiceOptions options;
  options.journal_dir = parent.path() + "/journal";
  options.checkpoint_dir = parent.path() + "/ckpt";
  options.checkpoint_every_rounds = 5;
  EXPECT_EQ(TrajectoryService::CreateWithEngine(
                states, std::make_unique<NullEngine>(), options)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  // A fresh Create must refuse a directory already holding checkpoints —
  // silently shadowing recoverable state is how deployments lose data.
  const RetraSynConfig config = CheckpointedConfig(parent.path());
  {
    auto service = TrajectoryService::Create(states, config);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, 10, 8, 2);
    ASSERT_TRUE(service.value()->Drain().ok());
  }
  EXPECT_EQ(TrajectoryService::Create(states, config).status().code(),
            StatusCode::kFailedPrecondition);
  // Recover remains the sanctioned way back in.
  EXPECT_TRUE(TrajectoryService::Recover(states, config).ok());
}

}  // namespace
}  // namespace retrasyn
