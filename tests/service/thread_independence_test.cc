// The released bytes do not depend on how many threads synthesize them.
// Synthesis splits each round into chunks by the live-stream count alone;
// num_threads and the shared ThreadPool only decide who runs which chunk.
// So every (num_threads, shared pool, SyncPolicy) combination must release
// the same densities and the same SnapshotRelease, with enough live streams
// that the rounds really run several chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/release_server.h"
#include "core/synthesizer.h"
#include "geo/grid_factory.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

constexpr int64_t kLive = 10000;
constexpr int64_t kChurn = 1000;
constexpr int64_t kRounds = 12;

/// Drives rounds [from, to) of a steady-churn workload: kChurn users enter
/// per round and each lives kLive / kChurn rounds, so from round 9 on kLive
/// users are active.
void DriveRounds(IngestSession& session, const SpatialGrid& grid,
                 int64_t from, int64_t to) {
  const int64_t lifetime = kLive / kChurn;
  const int64_t cells = static_cast<int64_t>(grid.NumCells());
  auto at = [&](int64_t u, int64_t t) {
    const int64_t cell = (u * 7 + t * (u % 3)) % cells;
    return grid.CellCenter(static_cast<CellId>(cell));
  };
  for (int64_t t = from; t < to; ++t) {
    const int64_t first = std::max<int64_t>(0, (t - lifetime) * kChurn);
    for (int64_t u = first; u < (t + 1) * kChurn; ++u) {
      const int64_t entered = u / kChurn;
      const uint64_t id = static_cast<uint64_t>(u);
      if (entered == t) {
        ASSERT_TRUE(session.Enter(id, at(u, t)).ok());
      } else if (t < entered + lifetime) {
        ASSERT_TRUE(session.Move(id, at(u, t)).ok());
      } else if (t == entered + lifetime) {
        ASSERT_TRUE(session.Quit(id).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
}

struct Release {
  std::vector<std::vector<uint32_t>> densities;  ///< per round
  CellStreamSet snapshot;
  int last_round_chunks = 0;  ///< chunks the final round's synthesis ran
};

Release Drive(const StateSpace& states, const SpatialGrid& grid, int num_threads,
          int pool_size, SyncPolicy policy) {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 8;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 6.0;
  config.seed = 7;
  config.num_threads = num_threads;
  if (pool_size > 0) {
    config.thread_pool = std::make_shared<ThreadPool>(pool_size);
  }
  config.sync_policy = policy;
  Release run;
  ReleaseServer server(grid);
  auto service = TrajectoryService::Create(states, config);
  EXPECT_TRUE(service.ok()) << service.status().ToString();
  if (!service.ok()) return run;
  TrajectoryService& svc = *service.value();
  svc.AddSink(&server);
  DriveRounds(svc.session(), grid, 0, kRounds - 1);
  EXPECT_TRUE(svc.Drain().ok());
  // The live count entering the last round is that round's work size.
  run.last_round_chunks = Synthesizer::EffectiveChunks(
      svc.retrasyn_engine()->synthesizer().num_live());
  DriveRounds(svc.session(), grid, kRounds - 1, kRounds);
  EXPECT_TRUE(svc.Drain().ok());
  for (int64_t t = 0; t < kRounds; ++t) {
    run.densities.push_back(server.DensityAt(t));
  }
  auto snapshot = svc.SnapshotRelease();
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  if (snapshot.ok()) run.snapshot = std::move(snapshot).value();
  return run;
}

TEST(ThreadIndependenceTest, ReleasedBytesIgnoreThreadsPoolsAndSyncPolicy) {
  const auto grid_owner = MakeEnvGrid(BoundingBox{0.0, 0.0, 400.0, 400.0}, 6);
  const SpatialGrid& grid = *grid_owner;
  const StateSpace states(grid);

  const Release want = Drive(states, grid, 1, 0, SyncPolicy::kInline);
  ASSERT_GE(want.last_round_chunks, 4);
  ASSERT_EQ(want.densities.size(), static_cast<size_t>(kRounds));
  ASSERT_GT(want.snapshot.streams().size(), static_cast<size_t>(kLive));

  for (SyncPolicy policy : {SyncPolicy::kInline, SyncPolicy::kAsync}) {
    for (int num_threads : {0, 1, 2, 4}) {
      for (int pool_size : {0, 1, 2, 4}) {  // 0 = no shared pool
        SCOPED_TRACE(std::string(policy == SyncPolicy::kInline ? "inline"
                                                               : "async") +
                     " num_threads=" + std::to_string(num_threads) +
                     " pool=" + std::to_string(pool_size));
        const Release got = Drive(states, grid, num_threads, pool_size, policy);
        EXPECT_EQ(got.last_round_chunks, want.last_round_chunks);
        ASSERT_EQ(got.densities.size(), want.densities.size());
        for (int64_t t = 0; t < kRounds; ++t) {
          ASSERT_EQ(got.densities[t], want.densities[t]) << "t=" << t;
        }
        const auto& a = want.snapshot.streams();
        const auto& b = got.snapshot.streams();
        ASSERT_EQ(a.size(), b.size());
        for (size_t i = 0; i < a.size(); ++i) {
          ASSERT_EQ(a[i].enter_time, b[i].enter_time) << "stream " << i;
          ASSERT_EQ(a[i].cells, b[i].cells) << "stream " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace retrasyn
