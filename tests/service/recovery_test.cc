// Crash-recovery acceptance tests for the durable event journal: a journaled
// TrajectoryService must be reconstructible from its journal alone, byte for
// byte — the durability extension of the Inline-vs-Async determinism family.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/release_server.h"
#include "core/synthesizer.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-recovery-");
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = std::move(dir).value();
  }
  ~TempDir() { RemoveDirTree(path_).CheckOK(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct DeviceTrace {
  int64_t enter_time = 0;
  std::vector<Point> points;
};

constexpr int64_t kHorizon = 24;

std::vector<DeviceTrace> MakeWorkload(uint64_t seed, int devices) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  Rng rng(seed);
  std::vector<DeviceTrace> traces;
  for (int i = 0; i < devices; ++i) {
    DeviceTrace trace;
    trace.enter_time = static_cast<int64_t>(rng.UniformInt(kHorizon - 2));
    const int64_t max_len = kHorizon - trace.enter_time;
    const int64_t len =
        1 + static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(std::min<int64_t>(max_len, 10))));
    Point p{box.min_x + rng.UniformDouble() * box.Width(),
            box.min_y + rng.UniformDouble() * box.Height()};
    for (int64_t k = 0; k < len; ++k) {
      trace.points.push_back(p);
      p = box.Clamp(Point{p.x + (rng.UniformDouble() - 0.5) * 80.0,
                          p.y + (rng.UniformDouble() - 0.5) * 80.0});
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

RetraSynConfig BaseConfig() {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 8;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 6.0;
  config.seed = 7;
  return config;
}

/// Feeds rounds [from, to) of the scripted workload into the session.
void DriveRounds(IngestSession& session, const std::vector<DeviceTrace>& traces,
                 int64_t from, int64_t to) {
  for (int64_t t = from; t < to; ++t) {
    for (uint64_t id = 0; id < traces.size(); ++id) {
      const DeviceTrace& trace = traces[id];
      const int64_t end =
          trace.enter_time + static_cast<int64_t>(trace.points.size());
      if (t == trace.enter_time) {
        ASSERT_TRUE(session.Enter(id, trace.points.front()).ok());
      } else if (t > trace.enter_time && t < end) {
        ASSERT_TRUE(session.Move(id, trace.points[t - trace.enter_time]).ok());
      } else if (t == end && end < kHorizon) {
        ASSERT_TRUE(session.Quit(id).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
}

/// BaseConfig plus a journal under <root>/journal and checkpoints every 4
/// rounds under <root>/ckpt, over \p shards ingest shards.
RetraSynConfig DurableConfig(const std::string& root, int shards) {
  RetraSynConfig config = BaseConfig();
  config.ingest_shards = shards;
  config.journal_dir = root + "/journal";
  config.checkpoint_dir = root + "/ckpt";
  config.checkpoint_every_rounds = 4;
  return config;
}

/// Every regular file under \p dir, recursively: relative path -> bytes.
/// Empty when \p dir does not exist.
std::map<std::string, std::string> ReadTree(const std::string& dir) {
  std::map<std::string, std::string> tree;
  std::vector<std::string> files;
  std::vector<std::string> subdirs;
  if (!ListDirectoryEntries(dir, &files, &subdirs).ok()) return tree;
  for (const std::string& name : files) {
    tree[name] = ReadFileToString(dir + "/" + name).ValueOrDie();
  }
  for (const std::string& sub : subdirs) {
    for (const auto& [name, bytes] : ReadTree(dir + "/" + sub)) {
      tree[sub + "/" + name] = bytes;
    }
  }
  return tree;
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

TEST(RecoveryTest, KillAndRecoverSnapshotByteIdentical) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(11, 60);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();

  // The service that will "crash": journal everything, then abandon it
  // without any graceful handoff beyond the destructor.
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), traces, 0, kHorizon);
  }

  // The uncrashed reference: same config, no journal.
  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_closed(), kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(RecoveryTest, RecoveredServiceContinuesIngestingAndJournaling) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(23, 50);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  constexpr int64_t kCrashAt = 10;

  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
  }

  // First recovery: continue the remaining rounds on the recovered service,
  // which keeps journaling into a fresh segment.
  {
    auto recovered = TrajectoryService::Recover(states, journaled);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
    ASSERT_NE(recovered.value()->journal(), nullptr);
    DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);
  }

  // Second recovery reads segments from both incarnations.
  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_closed(), kHorizon);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(RecoveryTest, AsyncRecoverMatchesInlineAndReArmsTheCloser) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(31, 50);
  TempDir dir;

  RetraSynConfig async_journaled = BaseConfig();
  async_journaled.journal_dir = dir.path();
  async_journaled.sync_policy = SyncPolicy::kAsync;
  constexpr int64_t kCrashAt = 12;

  {
    auto service = TrajectoryService::Create(states, async_journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  // Recovery replays inline, then re-arms the async closer; the continued
  // ingest exercises the re-armed pipeline (Drain required again).
  auto recovered = TrajectoryService::Recover(states, async_journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);
  ASSERT_TRUE(recovered.value()->Drain().ok());

  auto reference = TrajectoryService::Create(states, BaseConfig());  // inline
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(RecoveryTest, RecoverDirHoldingOnlyLockFileYieldsEmptyService) {
  // A supervisor that crashes between taking the journal lock and writing
  // the first segment leaves a directory holding nothing but LOCK. Recover
  // must treat it as a fresh deployment, not an error.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(61, 20);
  TempDir dir;
  {
    std::FILE* f = std::fopen((dir.path() + "/LOCK").c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  {
    auto recovered = TrajectoryService::Recover(states, journaled);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value()->rounds_closed(), 0);
    ASSERT_NE(recovered.value()->journal(), nullptr);
    // The empty service is fully usable: ingest, close rounds, journal.
    DriveRounds(recovered.value()->session(), traces, 0, kHorizon);
  }
  auto again = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->rounds_closed(), kHorizon);
}

TEST(RecoveryTest, RecoverSingleZeroByteSegmentYieldsEmptyService) {
  // A crash between segment creation and the header flush leaves a single
  // zero-byte segment (and no LOCK if the dir was never locked before).
  // That is clean-empty: no acknowledged record can live in a segment
  // without bytes.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(67, 20);
  TempDir dir;
  {
    std::FILE* f = std::fopen(
        (dir.path() + "/" + JournalWriter::SegmentFileName(0)).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  {
    auto recovered = TrajectoryService::Recover(states, journaled);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value()->rounds_closed(), 0);
    ASSERT_NE(recovered.value()->journal(), nullptr);
    DriveRounds(recovered.value()->session(), traces, 0, kHorizon);
  }
  // The second incarnation appended after the empty segment; everything
  // replays, and the empty segment stays harmless mid-journal.
  auto again = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value()->rounds_closed(), kHorizon);
}

/// Drives rounds [from, to) of a steady-churn workload: `churn` fresh
/// user-ids enter every round and every stream lives exactly live/churn
/// rounds before its explicit quit, so the live population is constant while
/// stream indices retire and recycle continuously. Pure function of t —
/// resumable from any round, e.g. on a recovered service.
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

TEST(RecoveryTest, ChurnKillAndRecoverByteIdenticalWithRecycling) {
  // The acceptance scenario for index recycling: under steady churn (indices
  // being retired and re-issued every round), killing the service at an
  // arbitrary round and recovering from the journal must reproduce the
  // uninterrupted run byte for byte — index assignments included, because
  // retirement depends only on the replayed batch sequence.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir dir;
  constexpr int64_t kLive = 20, kChurn = 4, kRounds = 30, kCrashAt = 17;

  RetraSynConfig journaled = BaseConfig();  // window 8, recycling default-on
  journaled.journal_dir = dir.path();
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveChurnRounds(service.value()->session(), grid, 0, kCrashAt, kLive,
                     kChurn);
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveChurnRounds(recovered.value()->session(), grid, kCrashAt, kRounds,
                   kLive, kChurn);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveChurnRounds(reference.value()->session(), grid, 0, kRounds, kLive,
                   kChurn);

  // Index lifecycle state matches the uninterrupted run exactly...
  const IngestSession& got_session = recovered.value()->session();
  const IngestSession& want_session = reference.value()->session();
  EXPECT_EQ(got_session.index_high_water(), want_session.index_high_water());
  EXPECT_EQ(got_session.num_free_indices(), want_session.num_free_indices());
  EXPECT_EQ(got_session.num_retiring_indices(),
            want_session.num_retiring_indices());
  // ...recycling actually happened (high-water far below streams started)...
  EXPECT_LT(got_session.index_high_water(), kChurn * kRounds);
  // ...and the released bytes are identical.
  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(RecoveryTest, JournalingDoesNotPerturbTheRelease) {
  // The journal must be a pure tap: a journaled run and a plain run release
  // identical bytes, and the ReleaseServer sink sees identical rounds.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(47, 60);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();

  auto a = TrajectoryService::Create(states, journaled);
  ASSERT_TRUE(a.ok());
  ReleaseServer server_a(grid);
  a.value()->AddSink(&server_a);
  DriveRounds(a.value()->session(), traces, 0, kHorizon);

  auto b = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(b.ok());
  ReleaseServer server_b(grid);
  b.value()->AddSink(&server_b);
  DriveRounds(b.value()->session(), traces, 0, kHorizon);

  auto got = a.value()->SnapshotRelease();
  auto want = b.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
  ASSERT_EQ(server_a.horizon(), server_b.horizon());
  for (int64_t t = 0; t < server_a.horizon(); ++t) {
    EXPECT_EQ(server_a.DensityAt(t), server_b.DensityAt(t)) << "t=" << t;
  }
}

TEST(RecoveryTest, TornTailRecoversAPrefixAtEveryByteOffset) {
  // Truncate the journal at every byte offset spanning the last closed round
  // and the final record, and assert Recover always succeeds with a state
  // byte-identical to a reference service fed exactly the surviving events.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(5, 8);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  constexpr int64_t kRounds = 6;
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, kRounds);
  }

  const std::string segment_name = JournalWriter::SegmentFileName(0);
  auto full_contents = ReadFileToString(dir.path() + "/" + segment_name);
  ASSERT_TRUE(full_contents.ok());
  const std::string full = full_contents.value();

  // Per-cut expected event prefix: every record that fully fits.
  struct RecordSpan {
    size_t end;  // offset one past the record
    JournalEvent event;
  };
  std::vector<RecordSpan> spans;
  {
    size_t offset = 0;
    uint64_t fingerprint = 0;
    ASSERT_TRUE(
        CheckSegmentHeader(full.data(), full.size(), &offset, &fingerprint)
            .ok());
    JournalEvent e;
    while (offset < full.size()) {
      ASSERT_TRUE(DecodeRecord(full.data(), full.size(), &offset, &e).ok());
      spans.push_back(RecordSpan{offset, e});
    }
  }
  ASSERT_GE(spans.size(), 3u);

  // Cuts spanning the last round: from just past the second-to-last Tick to
  // the end of the file (the final record is the last round's Tick).
  size_t cut_from = kSegmentHeaderSize;
  {
    int ticks_seen = 0;
    for (size_t i = spans.size(); i-- > 0;) {
      if (spans[i].event.type == JournalEventType::kTick && ++ticks_seen == 2) {
        cut_from = spans[i].end;
        break;
      }
    }
  }

  for (size_t cut = cut_from; cut <= full.size(); ++cut) {
    TempDir copy;
    {
      std::FILE* f =
          std::fopen((copy.path() + "/" + segment_name).c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(full.data(), 1, cut, f), cut);
      std::fclose(f);
    }
    RetraSynConfig recover_config = journaled;
    recover_config.journal_dir = copy.path();
    auto recovered = TrajectoryService::Recover(states, recover_config);
    ASSERT_TRUE(recovered.ok())
        << "cut=" << cut << ": " << recovered.status().ToString();

    // Reference: a fresh unjournaled service fed exactly the surviving
    // events through the same session API.
    auto reference = TrajectoryService::Create(states, BaseConfig());
    ASSERT_TRUE(reference.ok());
    IngestSession& session = reference.value()->session();
    int64_t expected_rounds = 0;
    size_t expected_events = 0;
    for (const RecordSpan& span : spans) {
      if (span.end > cut) break;
      ++expected_events;
      const JournalEvent& e = span.event;
      switch (e.type) {
        case JournalEventType::kEnter:
          ASSERT_TRUE(session.Enter(e.user, e.location).ok());
          break;
        case JournalEventType::kMove:
          ASSERT_TRUE(session.Move(e.user, e.location).ok());
          break;
        case JournalEventType::kQuit:
          ASSERT_TRUE(session.Quit(e.user).ok());
          break;
        case JournalEventType::kTick:
          ASSERT_TRUE(session.Tick().ok());
          ++expected_rounds;
          break;
      }
    }

    EXPECT_EQ(recovered.value()->rounds_closed(), expected_rounds)
        << "cut=" << cut;
    EXPECT_EQ(recovered.value()->session().num_active_users(),
              session.num_active_users())
        << "cut=" << cut;
    EXPECT_EQ(recovered.value()->session().num_pending_events(),
              session.num_pending_events())
        << "cut=" << cut;
    if (expected_rounds > 0) {
      auto got = recovered.value()->SnapshotRelease();
      auto want = reference.value()->SnapshotRelease();
      ASSERT_TRUE(got.ok()) << "cut=" << cut;
      ASSERT_TRUE(want.ok());
      ExpectSameRelease(got.value(), want.value());
    }
  }
}

TEST(RecoveryTest, CreateRefusesAnExistingJournal) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(3, 5);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, 3);
  }
  auto second = TrajectoryService::Create(states, journaled);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Recover is the sanctioned way in.
  auto recovered = TrajectoryService::Recover(states, journaled);
  EXPECT_TRUE(recovered.ok()) << recovered.status().ToString();
}

TEST(RecoveryTest, RecoverOnAMissingOrEmptyJournalIsAFreshService) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path() + "/never-created";
  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered.value()->rounds_closed(), 0);
  // And it is immediately usable (journaling included).
  ASSERT_TRUE(recovered.value()->session().Enter(1, Point{10, 10}).ok());
  ASSERT_TRUE(recovered.value()->session().Tick().ok());
  recovered.value().reset();  // release the journal LOCK before cleanup
  RemoveDirTree(journaled.journal_dir).CheckOK();

  // Boot is recovery: a journaled, checkpointed Create and a Recover over
  // empty directories write the same files, byte for byte, and release the
  // same bytes — flat and sharded.
  const auto traces = MakeWorkload(5, 40);
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TempDir created_root;
    TempDir recovered_root;
    const RetraSynConfig create_config =
        DurableConfig(created_root.path(), shards);
    const RetraSynConfig recover_config =
        DurableConfig(recovered_root.path(), shards);
    for (const RetraSynConfig* config : {&create_config, &recover_config}) {
      ASSERT_TRUE(CreateDirIfMissing(config->journal_dir).ok());
      ASSERT_TRUE(CreateDirIfMissing(config->checkpoint_dir).ok());
    }
    auto created = TrajectoryService::Create(states, create_config);
    auto booted = TrajectoryService::Recover(states, recover_config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    ASSERT_TRUE(booted.ok()) << booted.status().ToString();
    for (auto* service : {&created, &booted}) {
      DriveRounds(service->value()->session(), traces, 0, 12);
      ASSERT_TRUE(service->value()->Drain().ok());
    }
    EXPECT_EQ(booted.value()->checkpoint()->last_checkpoint_round(), 12);
    auto want = created.value()->SnapshotRelease();
    auto got = booted.value()->SnapshotRelease();
    ASSERT_TRUE(want.ok() && got.ok());
    ExpectSameRelease(got.value(), want.value());
    created.value().reset();  // close the segments
    booted.value().reset();
    // Per shard: LOCK, the segments ending at checkpoint rounds 4, 8 and 12,
    // and the one opened after round 12 (window 8 retires none of them).
    const auto journal = ReadTree(create_config.journal_dir);
    EXPECT_EQ(journal.size(), static_cast<size_t>(5 * shards));
    EXPECT_EQ(ReadTree(recover_config.journal_dir), journal);
    const auto checkpoints = ReadTree(create_config.checkpoint_dir);
    EXPECT_EQ(checkpoints.count(CheckpointFileName(12)), 1u);
    EXPECT_EQ(ReadTree(recover_config.checkpoint_dir), checkpoints);
  }
}

TEST(RecoveryTest, RefusedCreateChangesNoFile) {
  // A Create over existing durable state must refuse before it truncates a
  // torn journal tail or deletes a corrupt checkpoint — the recovery that
  // would repair them is Recover's, and a refused Create must leave it
  // possible.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(9, 40);
  for (int shards : {1, 3}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    TempDir root;
    const RetraSynConfig config = DurableConfig(root.path(), shards);
    {
      auto service = TrajectoryService::Create(states, config);
      ASSERT_TRUE(service.ok()) << service.status().ToString();
      DriveRounds(service.value()->session(), traces, 0, 12);
      ASSERT_TRUE(service.value()->Drain().ok());
    }
    // Tear the tail of shard 0's last segment and cut the newest checkpoint
    // in half: the next recovery truncates the one and deletes the other.
    const std::string shard0 =
        shards == 1 ? config.journal_dir
                    : config.journal_dir + "/" + ShardJournalDirName(0);
    const std::string last_segment = JournalWriter::SegmentFileName(
        JournalReader::ScanDir(shard0).ValueOrDie().segments.back().index);
    const std::string segment = shard0 + "/" + last_segment;
    std::string bytes = ReadFileToString(segment).ValueOrDie();
    const std::string kTorn("\x07\x00torn", 6);
    bytes.append(kTorn);
    WriteFileAtomically(shard0, last_segment, bytes).CheckOK();
    auto scan = JournalReader::ScanDir(shard0);
    ASSERT_TRUE(scan.ok() && scan.value().torn);
    const std::string newest = config.checkpoint_dir + "/" +
                               CheckpointFileName(12);
    const std::string checkpoint = ReadFileToString(newest).ValueOrDie();
    WriteFileAtomically(config.checkpoint_dir, CheckpointFileName(12),
                        checkpoint.substr(0, checkpoint.size() / 2))
        .CheckOK();
    const auto journal = ReadTree(config.journal_dir);
    const auto checkpoints = ReadTree(config.checkpoint_dir);
    ASSERT_EQ(checkpoints.count(CheckpointFileName(12)), 1u);

    auto refused = TrajectoryService::Create(states, config);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(ReadTree(config.journal_dir), journal);
    EXPECT_EQ(ReadTree(config.checkpoint_dir), checkpoints);

    // Each refusal holds on its own. The journal alone (checkpointing off)
    // is refused before its torn tail is truncated ...
    RetraSynConfig journal_only = config;
    journal_only.checkpoint_every_rounds = 0;
    refused = TrajectoryService::Create(states, journal_only);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(ReadTree(config.journal_dir), journal);

    // ... and a fresh journal beside the old checkpoints before the corrupt
    // checkpoint is deleted, without making the journal dir.
    RetraSynConfig fresh_journal = config;
    fresh_journal.journal_dir = root.path() + "/journal2";
    refused = TrajectoryService::Create(states, fresh_journal);
    EXPECT_EQ(refused.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_EQ(ReadTree(config.checkpoint_dir), checkpoints);
    EXPECT_FALSE(ListDirectory(fresh_journal.journal_dir).ok());

    // Recover still repairs both and resumes at the last durable round.
    auto recovered = TrajectoryService::Recover(states, config);
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_EQ(recovered.value()->rounds_closed(), 12);
    EXPECT_EQ(recovered.value()->checkpoint()->last_checkpoint_round(), 8);
    EXPECT_EQ(FileSize(segment).ValueOrDie(),
              static_cast<int64_t>(bytes.size() - kTorn.size()));
  }
}

TEST(RecoveryTest, CustomEngineServicesRecoverThroughRecoverWithEngine) {
  // Journals written by CreateWithEngine deployments must be recoverable
  // too — through the overload that accepts a caller-built engine
  // (identically reconstructed, as byte-identity always required).
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(19, 40);
  TempDir dir;

  ServiceOptions options;
  options.journal_dir = dir.path();
  constexpr int64_t kCrashAt = 8;
  {
    auto service = TrajectoryService::CreateWithEngine(
        states, std::make_unique<RetraSynEngine>(states, BaseConfig()),
        options);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
  }

  auto recovered = TrajectoryService::RecoverWithEngine(
      states, std::make_unique<RetraSynEngine>(states, BaseConfig()), options);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);

  auto reference = TrajectoryService::CreateWithEngine(
      states, std::make_unique<RetraSynEngine>(states, BaseConfig()));
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(RecoveryTest, RetraSynJournalRecoversAcrossFactories) {
  // Index recycling and the journal fingerprint follow the engine type, not
  // the factory: CreateWithEngine over a RetraSynEngine writes the journal
  // Create writes, so Recover resumes it, and the release matches an
  // uninterrupted Create run byte for byte.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(23, 50);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  constexpr int64_t kCrashAt = 13;
  {
    auto service = TrajectoryService::CreateWithEngine(
        states, std::make_unique<RetraSynEngine>(states, journaled),
        journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);
  EXPECT_EQ(recovered.value()->session().index_high_water(),
            reference.value()->session().index_high_water());

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(RecoveryTest, RecoverUnderAChangedDeploymentIsRefused) {
  // Replay under a different grid or engine config would still *accept*
  // most events — just resolve them to different cells — so the deployment
  // fingerprint in the segment headers must turn silent divergence into a
  // hard error.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(3, 10);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, 4);
  }

  RetraSynConfig reseeded = journaled;
  reseeded.seed = journaled.seed + 1;
  EXPECT_EQ(TrajectoryService::Recover(states, reseeded).status().code(),
            StatusCode::kFailedPrecondition);

  const UniformGrid finer(box, 6);
  const StateSpace finer_states(finer);
  EXPECT_EQ(TrajectoryService::Recover(finer_states, journaled).status().code(),
            StatusCode::kFailedPrecondition);

  // The unchanged deployment still recovers.
  EXPECT_TRUE(TrajectoryService::Recover(states, journaled).ok());
}

TEST(RecoveryTest, ChangedAllocationAlphaOrKappaIsRefused) {
  // The adaptive allocation's alpha and kappa steer every round's budget
  // portion, so replay under either changed would silently diverge.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(3, 10);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  ASSERT_EQ(journaled.allocation.alpha, 8.0);
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, 4);
  }

  RetraSynConfig alpha = journaled;
  alpha.allocation.alpha = 2.0;
  EXPECT_EQ(TrajectoryService::Recover(states, alpha).status().code(),
            StatusCode::kFailedPrecondition);
  RetraSynConfig kappa = journaled;
  kappa.allocation.kappa = journaled.allocation.kappa + 1;
  EXPECT_EQ(TrajectoryService::Recover(states, kappa).status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_TRUE(TrajectoryService::Recover(states, journaled).ok());
}

TEST(RecoveryTest, AutoThreadCountResolvedOnAnotherPoolRecoversByteIdentically) {
  // The synthesis chunks follow the live-stream count alone, so a journal
  // written with num_threads = 0 on a 2-thread pool recovers on a 4-thread
  // pool and continues exactly like an uninterrupted serial run. 9000 live
  // streams run 4 chunks per round.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir dir;
  constexpr int64_t kLive = 9000, kChurn = 900, kCrashAt = 9, kRounds = 12;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  journaled.num_threads = 0;
  journaled.thread_pool = std::make_shared<ThreadPool>(2);
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveChurnRounds(service.value()->session(), grid, 0, kCrashAt, kLive,
                     kChurn);
  }

  RetraSynConfig wider = journaled;
  wider.thread_pool = std::make_shared<ThreadPool>(4);
  auto recovered = TrajectoryService::Recover(states, wider);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
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

TEST(RecoveryTest, RecoverRequiresAJournalDir) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  auto recovered = TrajectoryService::Recover(states, BaseConfig());
  EXPECT_EQ(recovered.status().code(), StatusCode::kInvalidArgument);
}

TEST(RecoveryTest, CorruptionBeforeTheFinalSegmentFailsRecovery) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(13, 100);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  {  // A restart ends the first writer's segment; the second writes another.
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, kHorizon / 2);
  }
  {
    auto service = TrajectoryService::Recover(states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), traces, kHorizon / 2, kHorizon);
  }
  // Flip one byte mid-way through the first of several segments.
  const std::string first = dir.path() + "/" + JournalWriter::SegmentFileName(0);
  auto contents = ReadFileToString(first);
  ASSERT_TRUE(contents.ok());
  std::string data = contents.value();
  auto segments = ListDirectory(dir.path());
  ASSERT_TRUE(segments.ok());
  ASSERT_GT(segments.value().size(), 1u);
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x10);
  {
    std::FILE* f = std::fopen(first.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }
  auto recovered = TrajectoryService::Recover(states, journaled);
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
}

TEST(RecoveryTest, UnsupportedHeaderVersionInTheFinalSegmentFailsRecovery) {
  // A final segment whose complete header names an unknown format version
  // is not a torn tail: Recover must refuse it and leave its bytes alone
  // rather than truncate the segment and come back with zero rounds.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const StateSpace states(*grid_owner);
  const auto traces = MakeWorkload(13, 100);
  TempDir dir;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, 6);
  }
  const std::string segment =
      dir.path() + "/" + JournalWriter::SegmentFileName(0);
  auto contents = ReadFileToString(segment);
  ASSERT_TRUE(contents.ok());
  std::string data = contents.value();
  ASSERT_GT(data.size(), kSegmentHeaderSize);
  data[sizeof(kJournalMagic)] = static_cast<char>(99);
  {
    std::FILE* f = std::fopen(segment.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }
  auto recovered = TrajectoryService::Recover(states, journaled);
  EXPECT_EQ(recovered.status().code(), StatusCode::kIOError);
  auto after = ReadFileToString(segment);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value(), data);
}

TEST(RecoveryTest, ChecksumValidRecordThatDoesNotDecodeFailsRecovery) {
  // A whole, checksum-valid record that does not decode (an unknown type 6,
  // or the retired type 5) followed by two good Ticks is not a torn tail:
  // Recover must refuse the journal and leave its bytes alone rather than
  // cut it there and come back without those two rounds.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const StateSpace states(*grid_owner);
  const auto traces = MakeWorkload(13, 100);
  for (const std::string& payload :
       {std::string("\x06"), std::string("\x05\x05")}) {
    TempDir dir;
    RetraSynConfig journaled = BaseConfig();
    journaled.journal_dir = dir.path();
    {
      auto service = TrajectoryService::Create(states, journaled);
      ASSERT_TRUE(service.ok());
      DriveRounds(service.value()->session(), traces, 0, 6);
    }
    std::string appended;
    PutVarint64(payload.size(), &appended);
    appended += payload;
    PutFixed32(Crc32c(payload.data(), payload.size()), &appended);
    EncodeRecord(JournalEvent::Tick(), &appended);
    EncodeRecord(JournalEvent::Tick(), &appended);
    const std::string segment =
        dir.path() + "/" + JournalWriter::SegmentFileName(0);
    {
      std::FILE* f = std::fopen(segment.c_str(), "ab");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(appended.data(), 1, appended.size(), f),
                appended.size());
      std::fclose(f);
    }
    const std::map<std::string, std::string> before = ReadTree(dir.path());
    auto recovered = TrajectoryService::Recover(states, journaled);
    EXPECT_EQ(recovered.status().code(), StatusCode::kIOError)
        << "type " << static_cast<int>(payload[0]);
    EXPECT_TRUE(ReadTree(dir.path()) == before)  // no dump of the bytes
        << "type " << static_cast<int>(payload[0]);
  }
}

TEST(RecoveryTest, PoisonedJournalBlocksTheSessionWithoutCrashing) {
  // Force a real journal I/O failure by deleting the journal directory out
  // from under the writer: appends to the open segment still land in the
  // orphaned inode, but the segment rotation at the first checkpoint round
  // cannot create a file, and from that point every session entry point
  // must refuse work with the sticky error — no aborts, no silent
  // divergence.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  TempDir parent;
  const RetraSynConfig journaled = DurableConfig(parent.path(), 1);
  const std::string& dir = journaled.journal_dir;
  auto service = TrajectoryService::Create(states, journaled);
  ASSERT_TRUE(service.ok());
  IngestSession& session = service.value()->session();

  // Pull the directory out from under the writer.
  ASSERT_TRUE(RemoveDirTree(dir).ok());

  // Drive rounds until the rotation hits the missing directory.
  Status failure;
  for (int64_t t = 0; t < 400 && failure.ok(); ++t) {
    for (uint64_t u = 0; u < 4 && failure.ok(); ++u) {
      failure = t == 0 ? session.Enter(u, Point{50.0 * (u + 1), 100.0})
                       : session.Move(u, Point{50.0 * (u + 1), 100.0});
    }
    if (failure.ok()) failure = session.Tick();
  }
  ASSERT_FALSE(failure.ok()) << "rotation over a deleted dir must fail";
  EXPECT_EQ(failure.code(), StatusCode::kIOError);

  // Sticky: everything is refused, nothing aborts, state stays queryable.
  const int64_t rounds = service.value()->rounds_closed();
  EXPECT_FALSE(session.Enter(99, Point{10, 10}).ok());
  EXPECT_FALSE(session.Move(0, Point{10, 10}).ok());
  EXPECT_FALSE(session.Quit(0).ok());
  EXPECT_FALSE(session.Tick().ok());
  EXPECT_EQ(service.value()->rounds_closed(), rounds);
}

}  // namespace
}  // namespace retrasyn
