// Long-horizon churn soak: the regression suite for the unbounded-horizon
// resource leak. A service run under steady enter/quit churn at constant
// live population must keep its per-stream bookkeeping — the session's index
// space and the engine's dense status/report-slot vectors — bounded by
// O(peak live + one window of churn), not by the number of streams ever
// started. Also pins the recycling determinism contracts: released bytes are
// identical with recycling on/off and under Inline/Async round closing, and
// the retired-index flow delivered through the release pipeline matches the
// session's own accounting.
//
// Round count scales with RETRASYN_SOAK_ROUNDS (default 10000) so the TSan
// CI stress job can shrink it while the release job soaks the full horizon.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "core/release_sink.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "geo/state_space.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

int64_t SoakRounds() {
  const char* env = std::getenv("RETRASYN_SOAK_ROUNDS");
  if (env != nullptr) {
    const long parsed = std::atol(env);
    if (parsed > 0) return parsed;
  }
  return 10000;
}

constexpr int64_t kLive = 32;   ///< constant live population
constexpr int64_t kChurn = 4;   ///< streams quitting (and entering) per round
constexpr int kWindow = 4;

RetraSynConfig SoakConfig() {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = kWindow;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 8.0;
  config.seed = 11;
  return config;
}

/// Same steady-churn schedule as the recovery tests: `kChurn` fresh user-ids
/// per round, each stream living exactly kLive/kChurn rounds to its explicit
/// quit. Pure function of t.
void DriveChurnRound(IngestSession& session, const SpatialGrid& grid, int64_t t) {
  const int64_t lifetime = kLive / kChurn;
  const int64_t cells = static_cast<int64_t>(grid.NumCells());
  auto at = [&](int64_t u, int64_t round) {
    return grid.CellCenter(static_cast<CellId>((u * 7 + round) % cells));
  };
  const int64_t first = std::max<int64_t>(0, (t - lifetime) * kChurn);
  for (int64_t u = first; u < (t + 1) * kChurn; ++u) {
    const int64_t entered = u / kChurn;
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

/// Records every delivered release (density + retired indices).
class RecordingSink : public ReleaseSink {
 public:
  Status OnRound(const RoundRelease& round) override {
    rounds_.push_back(round);
    return Status::OK();
  }
  const std::vector<RoundRelease>& rounds() const { return rounds_; }

 private:
  std::vector<RoundRelease> rounds_;
};

TEST(HorizonSoakTest, ChurnKeepsIndexSpaceAndDenseStateBounded) {
  const int64_t rounds = SoakRounds();
  const BoundingBox box{0.0, 0.0, 100.0, 100.0};
  const auto grid_owner = MakeEnvGrid(box, 2);  // tiny domain: the soak measures bookkeeping
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  auto service = TrajectoryService::Create(states, SoakConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  IngestSession& session = service.value()->session();
  for (int64_t t = 0; t < rounds; ++t) {
    DriveChurnRound(session, grid, t);
    if (testing::Test::HasFatalFailure()) return;
  }

  // An index stays occupied from its stream's enter to one window past its
  // quit round, so the steady-state footprint is the live population plus
  // (window + 1 retirement round + 1 quit round) of churn. Everything beyond
  // that small constant pool would be the old leak coming back.
  const int64_t occupancy = kLive + kChurn * (kWindow + 2);
  EXPECT_GE(session.index_high_water(), static_cast<uint32_t>(kLive));
  EXPECT_LE(session.index_high_water(), static_cast<uint32_t>(2 * occupancy))
      << "index high-water grew past the steady-state pool: leak";
  EXPECT_LE(session.num_free_indices() + session.num_retiring_indices(),
            static_cast<size_t>(2 * occupancy));

  // The engine's dense bookkeeping is bounded by the high-water mark (plus
  // the geometric growth factor of EnsureUser), not by total streams.
  const RetraSynEngine* engine = service.value()->retrasyn_engine();
  ASSERT_NE(engine, nullptr);
  EXPECT_LE(engine->dense_user_slots(),
            static_cast<size_t>(4 * occupancy));
  // Recycling really ran: nearly every started stream has been retired, and
  // without recycling this run would have minted ~started indices.
  const int64_t started = kChurn * rounds;
  EXPECT_GT(static_cast<int64_t>(engine->total_retired()),
            std::max<int64_t>(0, started - 4 * occupancy));
  if (rounds >= 1000) {
    EXPECT_LT(session.index_high_water(), static_cast<uint32_t>(started / 10));
  }
}

/// Forwards every call to a wrapped RetraSynEngine without being one, so a
/// service over it mints cumulative stream indices (only a RetraSynEngine
/// gets its indices recycled). The released bytes are the wrapped engine's.
class ForwardingEngine : public StreamReleaseEngine {
 public:
  ForwardingEngine(const StateSpace& states, const RetraSynConfig& config)
      : inner_(states, config) {}
  void Observe(const TimestampBatch& batch) override { inner_.Observe(batch); }
  CellStreamSet SnapshotRelease(int64_t num_timestamps) const override {
    return inner_.SnapshotRelease(num_timestamps);
  }
  std::vector<uint32_t> LiveDensity() const override {
    return inner_.LiveDensity();
  }
  std::string name() const override { return inner_.name(); }
  const RetraSynEngine& inner() const { return inner_; }

 private:
  RetraSynEngine inner_;
};

/// A service whose session mints cumulative stream indices: its engine is
/// not a RetraSynEngine, so the session never recycles.
std::unique_ptr<TrajectoryService> CumulativeIndexService(
    const StateSpace& states, const RetraSynConfig& config) {
  auto service = TrajectoryService::CreateWithEngine(
      states, std::make_unique<ForwardingEngine>(states, config), config);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  return service.ok() ? std::move(service).value() : nullptr;
}

/// The RetraSynEngine behind a CumulativeIndexService.
const RetraSynEngine& WrappedEngine(const TrajectoryService& service) {
  return dynamic_cast<const ForwardingEngine&>(service.engine()).inner();
}

TEST(HorizonSoakTest, LegacyModeGrowsLinearlyProvingTheLeakExisted) {
  // Control experiment (short): with cumulative indices, the index
  // high-water and the dense engine state grow with every stream ever
  // started.
  constexpr int64_t kRounds = 400;
  const BoundingBox box{0.0, 0.0, 100.0, 100.0};
  const auto grid_owner = MakeEnvGrid(box, 2);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  auto service = CumulativeIndexService(states, SoakConfig());
  ASSERT_NE(service, nullptr);
  IngestSession& session = service->session();
  for (int64_t t = 0; t < kRounds; ++t) {
    DriveChurnRound(session, grid, t);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_EQ(session.index_high_water(),
            static_cast<uint32_t>(kChurn * kRounds));
  EXPECT_GE(WrappedEngine(*service).dense_user_slots(),
            static_cast<size_t>(kChurn * kRounds - kLive));
}

TEST(HorizonSoakTest, CreateWithEngineOverRetraSynRecyclesLikeCreate) {
  // Recycling follows the engine type, not the factory: a RetraSynEngine
  // handed to CreateWithEngine keeps its index space bounded exactly as a
  // Create-built service does.
  constexpr int64_t kRounds = 400;
  const BoundingBox box{0.0, 0.0, 100.0, 100.0};
  const auto grid_owner = MakeEnvGrid(box, 2);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  auto created = TrajectoryService::Create(states, SoakConfig()).ValueOrDie();
  auto wrapped =
      TrajectoryService::CreateWithEngine(
          states, std::make_unique<RetraSynEngine>(states, SoakConfig()),
          SoakConfig())
          .ValueOrDie();
  for (int64_t t = 0; t < kRounds; ++t) {
    DriveChurnRound(created->session(), grid, t);
    DriveChurnRound(wrapped->session(), grid, t);
    if (testing::Test::HasFatalFailure()) return;
  }
  const int64_t occupancy = kLive + kChurn * (kWindow + 2);
  EXPECT_LE(wrapped->session().index_high_water(),
            static_cast<uint32_t>(2 * occupancy))
      << "index high-water grew past the steady-state pool: leak";
  EXPECT_EQ(wrapped->session().index_high_water(),
            created->session().index_high_water());
  auto got = wrapped->SnapshotRelease();
  auto want = created->SnapshotRelease();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(HorizonSoakTest, ChurnReleaseByteIdenticalWithRecyclingOnAndOff) {
  // Recycled indices resolve to dense slots indistinguishable from fresh
  // ones, so the released bytes must match a cumulative-index session over
  // the same engine config exactly.
  constexpr int64_t kRounds = 400;
  const BoundingBox box{0.0, 0.0, 100.0, 100.0};
  const auto grid_owner = MakeEnvGrid(box, 2);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  auto on = TrajectoryService::Create(states, SoakConfig()).ValueOrDie();
  auto off = CumulativeIndexService(states, SoakConfig());
  ASSERT_NE(off, nullptr);
  for (int64_t t = 0; t < kRounds; ++t) {
    DriveChurnRound(on->session(), grid, t);
    DriveChurnRound(off->session(), grid, t);
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_LT(on->session().index_high_water(),
            off->session().index_high_water() / 4);
  auto got = on->SnapshotRelease();
  auto want = off->SnapshotRelease();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

TEST(HorizonSoakTest, ChurnInlineVsAsyncByteIdenticalWithRecycling) {
  // Retirement must be a function of the batch sequence alone: the async
  // closer lags the ingest thread, so any dependence on close timing would
  // fork the index assignments. Releases, retired-index flow, and session
  // accounting must all match Inline exactly.
  constexpr int64_t kRounds = 300;
  const BoundingBox box{0.0, 0.0, 100.0, 100.0};
  const auto grid_owner = MakeEnvGrid(box, 2);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  auto run = [&](SyncPolicy policy, RecordingSink* sink) {
    RetraSynConfig config = SoakConfig();
    config.sync_policy = policy;
    config.round_queue_capacity = 4;
    auto service = TrajectoryService::Create(states, config);
    EXPECT_TRUE(service.ok());
    service.value()->AddSink(sink);
    for (int64_t t = 0; t < kRounds; ++t) {
      DriveChurnRound(service.value()->session(), grid, t);
    }
    EXPECT_TRUE(service.value()->Drain().ok());
    return std::move(service).value();
  };
  RecordingSink inline_sink, async_sink;
  auto inline_service = run(SyncPolicy::kInline, &inline_sink);
  auto async_service = run(SyncPolicy::kAsync, &async_sink);
  if (testing::Test::HasFatalFailure()) return;

  EXPECT_EQ(inline_service->session().index_high_water(),
            async_service->session().index_high_water());
  EXPECT_EQ(inline_service->session().num_free_indices(),
            async_service->session().num_free_indices());

  ASSERT_EQ(inline_sink.rounds().size(), async_sink.rounds().size());
  uint64_t total_retired = 0;
  for (size_t i = 0; i < inline_sink.rounds().size(); ++i) {
    const RoundRelease& a = inline_sink.rounds()[i];
    const RoundRelease& b = async_sink.rounds()[i];
    EXPECT_EQ(a.t, b.t);
    EXPECT_EQ(a.density, b.density) << "t=" << a.t;
    EXPECT_EQ(a.active, b.active) << "t=" << a.t;
    EXPECT_EQ(a.retired, b.retired) << "t=" << a.t;
    total_retired += a.retired.size();
    for (uint32_t index : a.retired) {
      EXPECT_LT(index, inline_service->session().index_high_water());
    }
  }
  // The engine's retired flow agrees with the session's bookkeeping: every
  // retired index was re-issuable, and the steady churn retired almost every
  // started stream.
  EXPECT_EQ(total_retired,
            inline_service->retrasyn_engine()->total_retired());
  EXPECT_GT(total_retired, static_cast<uint64_t>(kChurn * (kRounds / 2)));

  auto got = async_service->SnapshotRelease();
  auto want = inline_service->SnapshotRelease();
  ASSERT_TRUE(got.ok());
  ASSERT_TRUE(want.ok());
  ExpectSameRelease(got.value(), want.value());
}

}  // namespace
}  // namespace retrasyn
