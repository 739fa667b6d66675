// The async round-closing pipeline: ordered sink delivery under a slow sink,
// backpressure (block and fail-fast), the Drain()-before-snapshot rule,
// error propagation from background failures to the ingest thread, and
// byte-exact Inline-vs-Async equivalence for the real engine.

#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "service/round_closer.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/release_server.h"
#include "service/replay.h"
#include "service/trajectory_service.h"
#include "stream/hotspot_generator.h"

namespace retrasyn {
namespace {

/// A trivial engine whose Observe can be slowed down, for exercising the
/// queue without paying for real synthesis.
class StubEngine : public StreamReleaseEngine {
 public:
  explicit StubEngine(uint32_t num_cells, int observe_delay_ms = 0)
      : num_cells_(num_cells), observe_delay_ms_(observe_delay_ms) {}

  void Observe(const TimestampBatch& batch) override {
    if (observe_delay_ms_ > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(observe_delay_ms_));
    }
    last_t_ = batch.t;
    ++observed_;
  }

  CellStreamSet SnapshotRelease(int64_t num_timestamps) const override {
    CellStreamSet set(num_timestamps);
    // One synthetic stream per observed round, so tests can see how many
    // rounds actually reached the engine.
    for (int64_t i = 0; i < observed_; ++i) {
      CellStream s;
      s.enter_time = 0;
      s.cells = {0};
      set.Add(std::move(s)).CheckOK();
    }
    return set;
  }

  std::vector<uint32_t> LiveDensity() const override {
    std::vector<uint32_t> density(num_cells_, 0);
    density[0] = static_cast<uint32_t>(observed_);  // marks the round number
    return density;
  }

  std::string name() const override { return "stub"; }

  int64_t observed() const { return observed_; }

 private:
  const uint32_t num_cells_;
  const int observe_delay_ms_;
  int64_t observed_ = 0;
  int64_t last_t_ = -1;
};

/// Records delivery order; optionally sleeps per round or fails at a round.
class RecordingSink : public ReleaseSink {
 public:
  Status OnRound(const RoundRelease& round) override {
    if (delay_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    }
    if (round.t == fail_at_t) {
      return Status::IOError("sink exploded at round " +
                             std::to_string(round.t));
    }
    rounds.push_back(round.t);
    actives.push_back(round.active);
    return Status::OK();
  }

  int delay_ms = 0;
  int64_t fail_at_t = -1;
  std::vector<int64_t> rounds;   ///< delivery order as observed by the sink
  std::vector<uint64_t> actives;
};

struct AsyncFixture {
  AsyncFixture()
      : grid_owner(MakeEnvGrid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 4)),
        grid(*grid_owner),
        states(grid) {}

  /// A point inside the (row, col) cell of the 4x4 reference lattice — just
  /// a stable coordinate for any backend; these tests drive trivial
  /// single-point rounds and never depend on the cell layout.
  Point CellPoint(uint32_t row, uint32_t col) const {
    return Point{(col + 0.5) * 25.0, (row + 0.5) * 25.0};
  }

  /// Drives \p session through \p rounds trivial single-user rounds.
  static void DriveRounds(IngestSession& session, const Point& point,
                          int rounds) {
    for (int t = 0; t < rounds; ++t) {
      if (t == 0) {
        ASSERT_TRUE(session.Enter(1, point).ok());
      } else {
        ASSERT_TRUE(session.Move(1, point).ok());
      }
      ASSERT_TRUE(session.Tick().ok());
    }
  }

  std::unique_ptr<SpatialGrid> grid_owner;
  const SpatialGrid& grid;
  StateSpace states;
};

TEST(RoundCloserTest, SlowSinkStillReceivesRoundsInOrder) {
  AsyncFixture fx;
  ServiceOptions options;
  options.sync_policy = SyncPolicy::kAsync;
  options.round_queue_capacity = 16;
  auto service = TrajectoryService::CreateWithEngine(
      fx.states, std::make_unique<StubEngine>(fx.grid.NumCells()), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();

  RecordingSink sink;
  sink.delay_ms = 2;  // slower than the (instant) close step
  service.value()->AddSink(&sink);
  AsyncFixture::DriveRounds(service.value()->session(), fx.CellPoint(0, 0), 12);
  ASSERT_TRUE(service.value()->Drain().ok());

  ASSERT_EQ(sink.rounds.size(), 12u);
  for (int64_t t = 0; t < 12; ++t) {
    EXPECT_EQ(sink.rounds[t], t);  // strictly in round order, none skipped
    // LiveDensity marks how many rounds the engine had observed when the
    // release was built: round t must have been built after observing t + 1
    // rounds, i.e. releases are built in order too.
    EXPECT_EQ(sink.actives[t], static_cast<uint64_t>(t + 1));
  }
}

TEST(RoundCloserTest, BlockBackpressureProcessesEveryRound) {
  AsyncFixture fx;
  ServiceOptions options;
  options.sync_policy = SyncPolicy::kAsync;
  options.round_queue_capacity = 1;  // force the ingest thread to block
  options.backpressure = BackpressurePolicy::kBlock;
  auto engine =
      std::make_unique<StubEngine>(fx.grid.NumCells(), /*observe_delay_ms=*/3);
  StubEngine* raw = engine.get();
  auto service = TrajectoryService::CreateWithEngine(fx.states,
                                                     std::move(engine), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RecordingSink sink;
  service.value()->AddSink(&sink);

  AsyncFixture::DriveRounds(service.value()->session(), fx.CellPoint(1, 1), 10);
  ASSERT_TRUE(service.value()->Drain().ok());
  EXPECT_EQ(raw->observed(), 10);
  ASSERT_EQ(sink.rounds.size(), 10u);
  for (int64_t t = 0; t < 10; ++t) EXPECT_EQ(sink.rounds[t], t);
}

TEST(RoundCloserTest, FailFastBackpressureRejectsAndAllowsRetry) {
  AsyncFixture fx;
  ServiceOptions options;
  options.sync_policy = SyncPolicy::kAsync;
  options.round_queue_capacity = 1;
  options.backpressure = BackpressurePolicy::kFailFast;
  auto engine = std::make_unique<StubEngine>(fx.grid.NumCells(),
                                             /*observe_delay_ms=*/30);
  StubEngine* raw = engine.get();
  auto service = TrajectoryService::CreateWithEngine(fx.states,
                                                     std::move(engine), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  IngestSession& session = service.value()->session();

  // Round 0 heads for the (slow) closer; subsequent rounds pile up in the
  // single queue slot until a Tick fails fast. The failed Tick leaves the
  // round open with its events intact.
  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 1)).ok());
  Status st = Status::OK();
  int accepted = 0;
  while (true) {
    st = session.Tick();
    if (!st.ok()) break;
    ++accepted;
    ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 0)).ok());
    ASSERT_LT(accepted, 1000) << "queue never filled";
  }
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  const int64_t open_round = session.open_round();
  EXPECT_EQ(session.num_pending_events(), 1u);

  // Once the closer catches up, the identical round goes through.
  ASSERT_TRUE(service.value()->Drain().ok());
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(session.open_round(), open_round + 1);
  ASSERT_TRUE(service.value()->Drain().ok());
  EXPECT_EQ(raw->observed(), session.open_round());
}

TEST(RoundCloserTest, SnapshotRequiresDrain) {
  AsyncFixture fx;
  ServiceOptions options;
  options.sync_policy = SyncPolicy::kAsync;
  options.round_queue_capacity = 8;
  auto service = TrajectoryService::CreateWithEngine(
      fx.states,
      std::make_unique<StubEngine>(fx.grid.NumCells(), /*observe_delay_ms=*/20),
      options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  IngestSession& session = service.value()->session();

  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());

  // Rounds are still being closed in the background.
  auto premature = service.value()->SnapshotRelease();
  EXPECT_EQ(premature.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(premature.status().message().find("Drain"), std::string::npos);

  ASSERT_TRUE(service.value()->Drain().ok());
  auto snapshot = service.value()->SnapshotRelease();
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot.value().streams().size(), 2u);  // one per observed round
}

TEST(RoundCloserTest, SinkFailureSurfacesOnNextTickAndDrain) {
  AsyncFixture fx;
  ServiceOptions options;
  options.sync_policy = SyncPolicy::kAsync;
  options.round_queue_capacity = 4;
  auto service = TrajectoryService::CreateWithEngine(
      fx.states, std::make_unique<StubEngine>(fx.grid.NumCells()), options);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RecordingSink sink;
  sink.fail_at_t = 1;
  service.value()->AddSink(&sink);
  IngestSession& session = service.value()->session();

  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());  // round 1: delivery will fail

  // The failure is asynchronous: eventually a Tick() reports it instead of
  // swallowing it. (The first post-failure Tick may still be accepted if it
  // races ahead of delivery.)
  Status st = Status::OK();
  for (int i = 0; i < 1000 && st.ok(); ++i) {
    ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 0)).ok());
    st = session.Tick();
    if (st.ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("sink exploded"), std::string::npos);

  // The error is sticky: Drain() and the snapshot surface it too.
  EXPECT_EQ(service.value()->Drain().code(), StatusCode::kIOError);
  EXPECT_EQ(service.value()->SnapshotRelease().status().code(),
            StatusCode::kIOError);
  // Rounds before the failure were delivered; the failing one was not.
  ASSERT_EQ(sink.rounds.size(), 1u);
  EXPECT_EQ(sink.rounds[0], 0);
}

TEST(RoundCloserTest, InlineSinkFailureCommitsRoundAndSurfacesOnNextTick) {
  // Inline counterpart of the async poisoning contract: by the time a sink
  // runs, the engine has consumed the round, so the closing Tick() must NOT
  // fail (a session rollback would make a retry double-observe the batch).
  // The error surfaces, sticky, on the next Tick()/Drain()/snapshot.
  AsyncFixture fx;
  auto engine = std::make_unique<StubEngine>(fx.grid.NumCells());
  StubEngine* raw = engine.get();
  auto service = TrajectoryService::CreateWithEngine(fx.states,
                                                     std::move(engine), {});
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  RecordingSink sink;
  sink.fail_at_t = 1;
  service.value()->AddSink(&sink);
  IngestSession& session = service.value()->session();

  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());  // sink fails, but the round commits
  EXPECT_EQ(session.open_round(), 2);
  EXPECT_EQ(raw->observed(), 2);  // observed exactly once, no double-observe

  ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 0)).ok());
  Status st = session.Tick();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("sink exploded"), std::string::npos);
  EXPECT_EQ(session.open_round(), 2);  // refused round rolled back
  EXPECT_EQ(raw->observed(), 2);
  EXPECT_EQ(service.value()->Drain().code(), StatusCode::kIOError);
  EXPECT_EQ(service.value()->SnapshotRelease().status().code(),
            StatusCode::kIOError);
  ASSERT_EQ(sink.rounds.size(), 1u);  // round 0 delivered, round 1 failed
  EXPECT_EQ(sink.rounds[0], 0);
}

TEST(RoundCloserTest, AsyncReleaseIsByteIdenticalToInline) {
  // The determinism contract: for a fixed (seed, num_threads), Async mode
  // produces the identical release sequence and snapshot as Inline mode.
  HotspotGeneratorConfig data_config;
  data_config.num_timestamps = 50;
  data_config.initial_users = 250;
  data_config.mean_arrivals = 20.0;
  Rng rng(11);
  const StreamDatabase db = GenerateHotspotStreams(data_config, rng);
  const auto grid_owner = MakeEnvGrid(db.box(), 4);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 10;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = db.AverageLength();
  config.seed = 321;
  config.num_threads = 2;
  config.thread_pool = std::make_shared<ThreadPool>(2);

  auto run = [&](SyncPolicy policy, ReleaseServer* server) {
    RetraSynConfig run_config = config;
    run_config.sync_policy = policy;
    run_config.round_queue_capacity = 4;
    auto service = TrajectoryService::Create(states, run_config);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    service.value()->AddSink(server);
    ReplayDatabase(db, *service.value()).CheckOK();
    EXPECT_TRUE(service.value()->Drain().ok());
    auto snapshot = service.value()->SnapshotRelease(db.num_timestamps());
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return std::move(snapshot).value();
  };

  ReleaseServer inline_server(grid);
  ReleaseServer async_server(grid);
  const CellStreamSet inline_set = run(SyncPolicy::kInline, &inline_server);
  const CellStreamSet async_set = run(SyncPolicy::kAsync, &async_server);

  // Identical snapshots, stream for stream.
  ASSERT_EQ(async_set.streams().size(), inline_set.streams().size());
  ASSERT_EQ(async_set.TotalPoints(), inline_set.TotalPoints());
  for (size_t i = 0; i < inline_set.streams().size(); ++i) {
    EXPECT_EQ(async_set.streams()[i].enter_time,
              inline_set.streams()[i].enter_time) << "stream " << i;
    EXPECT_EQ(async_set.streams()[i].cells, inline_set.streams()[i].cells)
        << "stream " << i;
  }
  // Identical release sequences as observed by the sinks.
  ASSERT_EQ(async_server.horizon(), inline_server.horizon());
  for (int64_t t = 0; t < inline_server.horizon(); ++t) {
    EXPECT_EQ(async_server.DensityAt(t), inline_server.DensityAt(t))
        << "t=" << t;
    EXPECT_EQ(async_server.ActiveAt(t), inline_server.ActiveAt(t)) << "t=" << t;
  }
}

}  // namespace
}  // namespace retrasyn
