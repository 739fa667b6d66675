// Acceptance test for the streaming service layer: a fleet of simulated
// devices drives TrajectoryService purely through per-user Enter/Move/Quit
// events — no StreamDatabase, no StreamFeeder, no precomputed batches on the
// service path — and the released synthetic database is compared against the
// legacy batch-replay pipeline fed the same underlying trajectories with the
// same seed. The two releases must be identical, stream for stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/release_server.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "service/trajectory_service.h"
#include "stream/feeder.h"

namespace retrasyn {
namespace {

/// One simulated device's trajectory: when it appears and the raw points it
/// reports, one per timestamp. Deliberately *not* a StreamDatabase.
struct DeviceTrace {
  int64_t enter_time = 0;
  std::vector<Point> points;
};

constexpr int64_t kHorizon = 60;

/// A deterministic workload: devices appear over time, random-walk with
/// occasional non-adjacent GPS glitches (exercising the clamp path), and
/// leave before the horizon.
std::vector<DeviceTrace> MakeWorkload(uint64_t seed) {
  const BoundingBox box{0.0, 0.0, 800.0, 800.0};
  Rng rng(seed);
  std::vector<DeviceTrace> traces;
  for (int i = 0; i < 220; ++i) {
    DeviceTrace trace;
    trace.enter_time = static_cast<int64_t>(rng.UniformInt(kHorizon - 2));
    const int64_t max_len = kHorizon - trace.enter_time;
    const int64_t len =
        1 + static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(std::min<int64_t>(max_len, 25))));
    Point p{box.min_x + rng.UniformDouble() * box.Width(),
            box.min_y + rng.UniformDouble() * box.Height()};
    for (int64_t k = 0; k < len; ++k) {
      trace.points.push_back(p);
      if (rng.UniformDouble() < 0.05) {
        // GPS glitch: teleport (will be clamped by the protocol).
        p = Point{box.min_x + rng.UniformDouble() * box.Width(),
                  box.min_y + rng.UniformDouble() * box.Height()};
      } else {
        p = box.Clamp(Point{p.x + (rng.UniformDouble() - 0.5) * 150.0,
                            p.y + (rng.UniformDouble() - 0.5) * 150.0});
      }
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

RetraSynConfig EngineConfig() {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 12;
  config.division = DivisionStrategy::kPopulation;
  config.allocation.kind = AllocationKind::kAdaptive;
  config.lambda = 10.0;
  config.seed = 99;
  return config;
}

TEST(StreamingServiceTest, PureEventDrivenReleaseMatchesLegacyBatchReplay) {
  const BoundingBox box{0.0, 0.0, 800.0, 800.0};
  const std::vector<DeviceTrace> traces = MakeWorkload(17);
  const auto grid_owner = MakeEnvGrid(box, 5);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  // --- Service path: per-device events only. -----------------------------
  auto service = TrajectoryService::Create(states, EngineConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ReleaseServer server(grid);
  service.value()->AddSink(&server);
  IngestSession& session = service.value()->session();
  for (int64_t t = 0; t < kHorizon; ++t) {
    for (uint64_t id = 0; id < traces.size(); ++id) {
      const DeviceTrace& trace = traces[id];
      const int64_t end = trace.enter_time +
                          static_cast<int64_t>(trace.points.size());
      if (t == trace.enter_time) {
        ASSERT_TRUE(session.Enter(id, trace.points.front()).ok());
      } else if (t > trace.enter_time && t < end) {
        ASSERT_TRUE(
            session.Move(id, trace.points[t - trace.enter_time]).ok());
      } else if (t == end && end < kHorizon) {
        ASSERT_TRUE(session.Quit(id).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
  auto snapshot = service.value()->SnapshotRelease(kHorizon);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const CellStreamSet& streamed = snapshot.value();

  // --- Batch path: materialize the database, replay batches, snapshot. ---
  StreamDatabase db(box, kHorizon);
  for (const DeviceTrace& trace : traces) {
    UserStream stream;
    stream.user_id = 0;
    stream.enter_time = trace.enter_time;
    stream.points = trace.points;
    db.Add(std::move(stream)).CheckOK();
  }
  const StreamFeeder feeder(db, grid, states);
  RetraSynEngine legacy(states, EngineConfig());
  for (int64_t t = 0; t < feeder.num_timestamps(); ++t) {
    legacy.Observe(feeder.Batch(t));
  }
  const CellStreamSet batch = legacy.SnapshotRelease(kHorizon);

  // --- Identical releases. ------------------------------------------------
  ASSERT_EQ(streamed.num_timestamps(), batch.num_timestamps());
  ASSERT_EQ(streamed.streams().size(), batch.streams().size());
  ASSERT_EQ(streamed.TotalPoints(), batch.TotalPoints());
  for (size_t i = 0; i < streamed.streams().size(); ++i) {
    EXPECT_EQ(streamed.streams()[i].enter_time, batch.streams()[i].enter_time)
        << "stream " << i;
    EXPECT_EQ(streamed.streams()[i].cells, batch.streams()[i].cells)
        << "stream " << i;
  }

  // And the subscribed server's live view equals the legacy ground truth of
  // the released database at every timestamp.
  const DensityIndex post_hoc(batch, grid);
  ASSERT_EQ(server.horizon(), kHorizon);
  for (int64_t t = 0; t < kHorizon; ++t) {
    EXPECT_EQ(server.DensityAt(t), post_hoc.DensityAt(t)) << "t=" << t;
  }
}

TEST(StreamingServiceTest, PoolEnabledAtOneThreadKeepsByteExactEquivalence) {
  // num_threads=1 with a live ThreadPool attached must not perturb the
  // serial RNG stream: the streamed release still matches the plain batch
  // replay byte for byte.
  const BoundingBox box{0.0, 0.0, 800.0, 800.0};
  const std::vector<DeviceTrace> traces = MakeWorkload(17);
  const auto grid_owner = MakeEnvGrid(box, 5);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  RetraSynConfig pooled_config = EngineConfig();
  pooled_config.num_threads = 1;
  pooled_config.thread_pool = std::make_shared<ThreadPool>(4);
  auto service = TrajectoryService::Create(states, pooled_config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_EQ(service.value()->retrasyn_engine()->thread_pool(),
            pooled_config.thread_pool.get());
  IngestSession& session = service.value()->session();
  for (int64_t t = 0; t < kHorizon; ++t) {
    for (uint64_t id = 0; id < traces.size(); ++id) {
      const DeviceTrace& trace = traces[id];
      const int64_t end = trace.enter_time +
                          static_cast<int64_t>(trace.points.size());
      if (t == trace.enter_time) {
        ASSERT_TRUE(session.Enter(id, trace.points.front()).ok());
      } else if (t > trace.enter_time && t < end) {
        ASSERT_TRUE(
            session.Move(id, trace.points[t - trace.enter_time]).ok());
      } else if (t == end && end < kHorizon) {
        ASSERT_TRUE(session.Quit(id).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
  auto snapshot = service.value()->SnapshotRelease(kHorizon);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  const CellStreamSet& streamed = snapshot.value();

  StreamDatabase db(box, kHorizon);
  for (const DeviceTrace& trace : traces) {
    UserStream stream;
    stream.user_id = 0;
    stream.enter_time = trace.enter_time;
    stream.points = trace.points;
    db.Add(std::move(stream)).CheckOK();
  }
  const StreamFeeder feeder(db, grid, states);
  RetraSynEngine serial(states, EngineConfig());  // no pool at all
  for (int64_t t = 0; t < feeder.num_timestamps(); ++t) {
    serial.Observe(feeder.Batch(t));
  }
  const CellStreamSet batch = serial.SnapshotRelease(kHorizon);

  ASSERT_EQ(streamed.streams().size(), batch.streams().size());
  ASSERT_EQ(streamed.TotalPoints(), batch.TotalPoints());
  for (size_t i = 0; i < streamed.streams().size(); ++i) {
    EXPECT_EQ(streamed.streams()[i].enter_time, batch.streams()[i].enter_time)
        << "stream " << i;
    EXPECT_EQ(streamed.streams()[i].cells, batch.streams()[i].cells)
        << "stream " << i;
  }
}

}  // namespace
}  // namespace retrasyn
