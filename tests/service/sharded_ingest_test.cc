// Acceptance tests for sharded ingestion: for a fixed shard count the
// released bytes must be identical to a single-shard run — under both sync
// policies, under arbitrary arrival order across shards, under concurrent
// producers, and across a kill-and-recover — and a journal written under N
// shards must refuse to replay under any other sharding.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/file_io.h"
#include "common/rng.h"
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
    auto dir = MakeTempDir("retrasyn-sharded-");
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

/// The event a device contributes at round t, if any.
enum class EventKind { kNone, kEnter, kMove, kQuit };

EventKind EventAt(const DeviceTrace& trace, int64_t t, Point* location) {
  const int64_t end =
      trace.enter_time + static_cast<int64_t>(trace.points.size());
  if (t == trace.enter_time) {
    *location = trace.points.front();
    return EventKind::kEnter;
  }
  if (t > trace.enter_time && t < end) {
    *location = trace.points[t - trace.enter_time];
    return EventKind::kMove;
  }
  if (t == end && end < kHorizon) return EventKind::kQuit;
  return EventKind::kNone;
}

void Feed(IngestSession& session, uint64_t id, const DeviceTrace& trace,
          int64_t t) {
  Point p;
  switch (EventAt(trace, t, &p)) {
    case EventKind::kEnter:
      ASSERT_TRUE(session.Enter(id, p).ok());
      break;
    case EventKind::kMove:
      ASSERT_TRUE(session.Move(id, p).ok());
      break;
    case EventKind::kQuit:
      ASSERT_TRUE(session.Quit(id).ok());
      break;
    case EventKind::kNone:
      break;
  }
}

/// Feeds rounds [from, to) in ascending device order.
void DriveRounds(IngestSession& session, const std::vector<DeviceTrace>& traces,
                 int64_t from, int64_t to) {
  for (int64_t t = from; t < to; ++t) {
    for (uint64_t id = 0; id < traces.size(); ++id) {
      Feed(session, id, traces[id], t);
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

void ExpectSameIndexLifecycle(const IngestSession& a, const IngestSession& b) {
  EXPECT_EQ(a.index_high_water(), b.index_high_water());
  EXPECT_EQ(a.num_free_indices(), b.num_free_indices());
  EXPECT_EQ(a.num_retiring_indices(), b.num_retiring_indices());
  EXPECT_EQ(a.num_active_users(), b.num_active_users());
}

TEST(ShardedIngestTest, ShardCountsReleaseIdenticalBytesInline) {
  // The core determinism contract: for every shard count the k-way merge
  // reproduces the single-shard observation sequence exactly, so stream
  // index assignment, recycling, and the released bytes are all identical.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(11, 80);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(want.ok());

  for (int shards : {2, 3, 8}) {
    RetraSynConfig config = BaseConfig();
    config.ingest_shards = shards;
    auto sharded = TrajectoryService::Create(states, config);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    DriveRounds(sharded.value()->session(), traces, 0, kHorizon);
    auto got = sharded.value()->SnapshotRelease();
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectSameRelease(got.value(), want.value());
    ExpectSameIndexLifecycle(sharded.value()->session(),
                             reference.value()->session());
  }
}

TEST(ShardedIngestTest, ShardCountsReleaseIdenticalBytesAsync) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(13, 60);

  auto reference = TrajectoryService::Create(states, BaseConfig());  // inline
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  RetraSynConfig config = BaseConfig();
  config.ingest_shards = 4;
  config.sync_policy = SyncPolicy::kAsync;
  auto sharded = TrajectoryService::Create(states, config);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  DriveRounds(sharded.value()->session(), traces, 0, kHorizon);
  ASSERT_TRUE(sharded.value()->Drain().ok());

  auto got = sharded.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(ShardedIngestTest, ArrivalOrderWithinARoundNeverChangesTheRelease) {
  // Producers race into different shards, so the per-round arrival order is
  // arbitrary; the sealed batch must be a pure function of the event SET.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(17, 60);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(want.ok());

  for (uint64_t perm_seed : {1u, 2u, 3u}) {
    RetraSynConfig config = BaseConfig();
    config.ingest_shards = 4;
    auto sharded = TrajectoryService::Create(states, config);
    ASSERT_TRUE(sharded.ok());
    IngestSession& session = sharded.value()->session();
    Rng rng(perm_seed);
    std::vector<uint64_t> order(traces.size());
    for (uint64_t id = 0; id < traces.size(); ++id) order[id] = id;
    for (int64_t t = 0; t < kHorizon; ++t) {
      std::shuffle(order.begin(), order.end(), rng);
      for (uint64_t id : order) Feed(session, id, traces[id], t);
      ASSERT_TRUE(session.Tick().ok());
    }
    auto got = sharded.value()->SnapshotRelease();
    ASSERT_TRUE(got.ok());
    ExpectSameRelease(got.value(), want.value());
  }
}

TEST(ShardedIngestTest, ConcurrentProducersReleaseIdenticalBytes) {
  // One producer thread per shard slice, racing within every round; the
  // result must match the serial single-shard run byte for byte. Run under
  // TSan this is also the data-race acceptance test for the shard locking.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(19, 96);
  constexpr int kProducers = 4;

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  RetraSynConfig config = BaseConfig();
  config.ingest_shards = kProducers;
  auto sharded = TrajectoryService::Create(states, config);
  ASSERT_TRUE(sharded.ok());
  IngestSession& session = sharded.value()->session();
  for (int64_t t = 0; t < kHorizon; ++t) {
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        for (uint64_t id = static_cast<uint64_t>(p); id < traces.size();
             id += kProducers) {
          Feed(session, id, traces[id], t);
        }
      });
    }
    for (auto& thread : producers) thread.join();
    ASSERT_TRUE(session.Tick().ok());
  }

  auto got = sharded.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

/// The unlabeled metric \p name in \p snap; fails the test when absent.
MetricSample Metric(const TelemetrySnapshot& snap, const std::string& name) {
  for (const MetricSample& sample : snap.metrics) {
    if (sample.name == name && sample.labels.empty()) return sample;
  }
  ADD_FAILURE() << "no metric " << name;
  return MetricSample();
}

/// The per-shard series of \p name in \p snap, indexed by shard.
std::vector<double> PerShard(const TelemetrySnapshot& snap,
                             const std::string& name, int shards) {
  std::vector<double> values(static_cast<size_t>(shards), -1.0);
  for (const MetricSample& sample : snap.metrics) {
    if (sample.name != name || sample.labels.size() != 1) continue;
    values.at(std::stoul(sample.labels[0].second)) = sample.value;
  }
  return values;
}

TEST(ShardedIngestTest, IngestTelemetryTracksQueueDepthsAndTimings) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(29, 64);

  RetraSynConfig config = BaseConfig();
  config.ingest_shards = 4;
  auto service = TrajectoryService::Create(states, config);
  ASSERT_TRUE(service.ok());
  DriveRounds(service.value()->session(), traces, 0, kHorizon);

  const TelemetrySnapshot snap = service.value()->telemetry();
  EXPECT_EQ(Metric(snap, "retrasyn_ingest_rounds_sealed_total").value,
            static_cast<double>(kHorizon));
  EXPECT_GT(Metric(snap, "retrasyn_ingest_entries_merged_total").value, 0.0);
  EXPECT_GT(Metric(snap, "retrasyn_ingest_seal_seconds").histogram.sum_seconds,
            0.0);
  EXPECT_GT(Metric(snap, "retrasyn_ingest_merge_seconds").histogram.sum_seconds,
            0.0);
  EXPECT_GT(
      Metric(snap, "retrasyn_ingest_commit_seconds").histogram.sum_seconds,
      0.0);
  // Consumed batches come back to the seal pool and later rounds reuse them.
  EXPECT_GT(Metric(snap, "retrasyn_ingest_obs_buffers_reused_total").value,
            0.0);

  double accepted = 0, peak = 0, rejected = 0;
  for (double v : PerShard(snap, "retrasyn_ingest_events_accepted_total", 4)) {
    accepted += v;
  }
  for (double v : PerShard(snap, "retrasyn_ingest_events_rejected_total", 4)) {
    rejected += v;
  }
  for (double v : PerShard(snap, "retrasyn_ingest_pending_events_peak", 4)) {
    peak = std::max(peak, v);
  }
  // Round boundaries drain every queue.
  for (double v : PerShard(snap, "retrasyn_ingest_pending_events", 4)) {
    EXPECT_EQ(v, 0.0);
  }
  uint64_t total_events = 0;
  for (const DeviceTrace& trace : traces) {
    total_events += trace.points.size();  // enter + moves
    const int64_t end =
        trace.enter_time + static_cast<int64_t>(trace.points.size());
    if (end < kHorizon) ++total_events;  // the quit
  }
  EXPECT_EQ(accepted, static_cast<double>(total_events));
  EXPECT_EQ(rejected, 0.0);
  EXPECT_GT(peak, 0.0);

  // Validation failures land in events_rejected without perturbing state.
  EXPECT_FALSE(service.value()->session().Move(1u << 20, Point{10, 10}).ok());
  double rejected_after = 0;
  for (double v : PerShard(service.value()->telemetry(),
                           "retrasyn_ingest_events_rejected_total", 4)) {
    rejected_after += v;
  }
  EXPECT_EQ(rejected_after, 1.0);
}

TEST(ShardedIngestTest, KillAndRecoverShardedByteIdentical) {
  // Crash mid-run with 3 shards (3 per-shard journals), recover under the
  // same config, finish the workload: identical to an unjournaled
  // single-shard run end to end.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(31, 60);
  TempDir dir;
  constexpr int64_t kCrashAt = 13;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  journaled.ingest_shards = 3;
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    EXPECT_EQ(service.value()->num_journals(), 3u);
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
  }
  // The on-disk layout is one journal per shard.
  for (int shard = 0; shard < 3; ++shard) {
    auto names =
        ListDirectory(dir.path() + "/" + ShardJournalDirName(shard));
    ASSERT_TRUE(names.ok()) << names.status().ToString();
    EXPECT_FALSE(names.value().empty());
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
  ExpectSameIndexLifecycle(recovered.value()->session(),
                           reference.value()->session());
}

TEST(ShardedIngestTest, AsyncShardedKillAndRecoverByteIdentical) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(37, 50);
  TempDir dir;
  constexpr int64_t kCrashAt = 9;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  journaled.ingest_shards = 4;
  journaled.sync_policy = SyncPolicy::kAsync;
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);
  ASSERT_TRUE(recovered.value()->Drain().ok());

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(ShardedIngestTest, ShardedCheckpointRecoveryByteIdentical) {
  // Checkpoints are shard-count agnostic on disk but recovery must stitch
  // them together with all N shard journals' suffixes.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(41, 60);
  TempDir dir;
  constexpr int64_t kCrashAt = 19;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path() + "/journal";
  journaled.checkpoint_dir = dir.path() + "/checkpoints";
  journaled.checkpoint_every_rounds = 5;
  journaled.ingest_shards = 3;
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok()) << service.status().ToString();
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
    ASSERT_TRUE(service.value()->Drain().ok());
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);
  ASSERT_TRUE(recovered.value()->Drain().ok());

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = recovered.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(ShardedIngestTest, BoundaryAppendSkewIsRepairedOnRecovery) {
  // A crash between the per-shard boundary appends of one Tick leaves some
  // shard journals one round ahead of the slowest one. Recovery must settle
  // on the minimum (a round is durable only once its boundary reached every
  // shard), physically drop the orphaned boundaries, and re-buffer the
  // now-open round's events — byte-identically to a run that never ticked.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(47, 50);
  TempDir dir;
  constexpr int64_t kCrashAt = 11;

  RetraSynConfig journaled = BaseConfig();
  journaled.journal_dir = dir.path();
  journaled.ingest_shards = 3;
  {
    auto service = TrajectoryService::Create(states, journaled);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, kCrashAt);
  }

  // Simulate the torn boundary: cut shard 1's journal right before its final
  // Tick record, leaving shards 0 and 2 one boundary ahead.
  const std::string lagging = dir.path() + "/" + ShardJournalDirName(1);
  {
    auto scan = JournalReader::ScanDir(lagging);
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    ASSERT_FALSE(scan.value().events.empty());
    ASSERT_EQ(scan.value().events.back().type, JournalEventType::kTick);
    ASSERT_TRUE(TruncateFile(scan.value().last_record_segment,
                             scan.value().last_record_offset)
                    .ok());
  }

  auto recovered = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  // The torn round is open again, its events re-buffered...
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt - 1);
  EXPECT_GT(recovered.value()->session().num_pending_events(), 0u);
  // Closing the reopened round needs no re-feeding — the events are already
  // buffered — and produces the batch the crashed Tick never durably sealed.
  ASSERT_TRUE(recovered.value()->session().Tick().ok());
  ASSERT_EQ(recovered.value()->rounds_closed(), kCrashAt);
  DriveRounds(recovered.value()->session(), traces, kCrashAt, kHorizon);
  recovered.value().reset();  // release the shard locks

  auto again = TrajectoryService::Recover(states, journaled);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  ASSERT_EQ(again.value()->rounds_closed(), kHorizon);

  auto reference = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(reference.ok());
  DriveRounds(reference.value()->session(), traces, 0, kHorizon);

  auto got = again.value()->SnapshotRelease();
  auto want = reference.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(ShardedIngestTest, ShardCountMismatchIsRefusedLoudly) {
  // The shard count is part of the deployment fingerprint AND the on-disk
  // layout; replaying under a different count would regroup rounds silently,
  // so both checks must fail closed.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);
  const auto traces = MakeWorkload(43, 40);
  TempDir sharded_dir;
  TempDir flat_dir;

  RetraSynConfig sharded = BaseConfig();
  sharded.journal_dir = sharded_dir.path();
  sharded.ingest_shards = 3;
  {
    auto service = TrajectoryService::Create(states, sharded);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, 5);
  }
  RetraSynConfig flat = BaseConfig();
  flat.journal_dir = flat_dir.path();
  {
    auto service = TrajectoryService::Create(states, flat);
    ASSERT_TRUE(service.ok());
    DriveRounds(service.value()->session(), traces, 0, 5);
  }

  // Sharded journal under any other shard count: refused.
  for (int other : {1, 2, 8}) {
    RetraSynConfig wrong = sharded;
    wrong.ingest_shards = other;
    EXPECT_EQ(TrajectoryService::Recover(states, wrong).status().code(),
              StatusCode::kFailedPrecondition)
        << "ingest_shards=" << other;
  }
  // Flat journal under a sharded config: refused.
  RetraSynConfig wrong_flat = flat;
  wrong_flat.ingest_shards = 3;
  EXPECT_EQ(TrajectoryService::Recover(states, wrong_flat).status().code(),
            StatusCode::kFailedPrecondition);
  // Create refuses existing state under either layout.
  EXPECT_EQ(TrajectoryService::Create(states, sharded).status().code(),
            StatusCode::kFailedPrecondition);
  // The matching counts still recover.
  EXPECT_TRUE(TrajectoryService::Recover(states, sharded).ok());
  EXPECT_TRUE(TrajectoryService::Recover(states, flat).ok());
}

TEST(ShardedIngestTest, ShardCountValidation) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 3);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  RetraSynConfig zero = BaseConfig();
  zero.ingest_shards = 0;
  EXPECT_EQ(TrajectoryService::Create(states, zero).status().code(),
            StatusCode::kInvalidArgument);
  RetraSynConfig too_many = BaseConfig();
  too_many.ingest_shards = RetraSynConfig::kMaxIngestShards + 1;
  EXPECT_EQ(TrajectoryService::Create(states, too_many).status().code(),
            StatusCode::kInvalidArgument);
  RetraSynConfig max = BaseConfig();
  max.ingest_shards = RetraSynConfig::kMaxIngestShards;
  EXPECT_TRUE(TrajectoryService::Create(states, max).ok());
}

}  // namespace
}  // namespace retrasyn
