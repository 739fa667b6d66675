// Regression tests for two lock-discipline findings the thread-safety
// annotation pass surfaced (and fixed) in IngestSession. Both are races a
// functional assertion cannot catch — the payoff is under
// -DRETRASYN_SANITIZE_THREAD=ON, where the pre-fix code reports a data race
// and the fixed code runs clean:
//
//  1. AttachJournals wrote shard->journal with no lock, relying on an
//     unenforced "attach before producers start" convention. Producers read
//     the pointer under the shard lock on every event, so any concurrent
//     attach/detach was a race on the pointer itself.
//  2. RestoreCheckpointState populated shard->active (and the active-streams
//     gauge) with no locks, relying on "the session is fresh" — but fresh
//     never meant unobserved: a monitoring thread polling
//     num_pending_events() or num_active_users() during recovery read the
//     same maps.

#include "service/ingest_session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "geo/grid.h"

namespace retrasyn {
namespace {

struct Fixture {
  Fixture() : grid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 4), states(grid) {}

  Point CellPoint(uint32_t row, uint32_t col) const {
    return grid.CellCenter(grid.Cell(row, col));
  }

  UniformGrid grid;
  StateSpace states;
  Telemetry telemetry;
};

TEST(IngestLockDisciplineTest, AttachJournalConcurrentWithProducers) {
  Fixture fx;
  // One shard: the producer and every detach contend on the same lock.
  IngestSession session(
      fx.states, [](const TimestampBatch&) { return Status::OK(); },
      fx.telemetry);
  std::atomic<bool> stop{false};
  std::thread producer([&]() {
    uint64_t user = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      // Enter/Quit churn: every admission reads shard->journal under the
      // shard lock (the journaling branch of the *Locked helpers).
      (void)session.Enter(user, fx.CellPoint(0, 0));
      (void)session.Quit(user);
      ++user;
    }
  });
  // Detach (the empty-vector form) races the producer's pointer reads
  // unless AttachJournals takes the shard lock. Detaching keeps the
  // journaling semantics trivial; the race was on the pointer, not the
  // pointee.
  for (int i = 0; i < 2000; ++i) {
    session.AttachJournals({});
  }
  stop.store(true, std::memory_order_relaxed);
  producer.join();
}

TEST(IngestLockDisciplineTest, AttachJournalsConcurrentWithShardedProducers) {
  Fixture fx;
  IngestSessionOptions options;
  options.num_shards = 4;
  IngestSession session(
      fx.states, [](const TimestampBatch&) { return Status::OK(); },
      fx.telemetry, options);
  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  producers.reserve(2);
  for (int t = 0; t < 2; ++t) {
    producers.emplace_back([&, t]() {
      uint64_t user = static_cast<uint64_t>(t) * 1000000;
      while (!stop.load(std::memory_order_relaxed)) {
        (void)session.Enter(user, fx.CellPoint(1, 1));
        (void)session.Quit(user);
        ++user;
      }
    });
  }
  // The empty-vector form detaches every shard's journal.
  for (int i = 0; i < 2000; ++i) {
    session.AttachJournals({});
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : producers) t.join();
}

TEST(IngestLockDisciplineTest, RestoreConcurrentWithMonitoringReaders) {
  Fixture fx;
  IngestSessionOptions options;
  options.num_shards = 4;
  IngestSession session(
      fx.states, [](const TimestampBatch&) { return Status::OK(); },
      fx.telemetry, options);

  // A sizeable checkpoint keeps the restore busy long enough for the readers
  // to overlap it.
  constexpr uint32_t kStreams = 50000;
  SessionCheckpointState state;
  state.open_round = 3;
  state.next_stream_index = kStreams;
  state.active.reserve(kStreams);
  for (uint32_t i = 0; i < kStreams; ++i) {
    state.active.push_back(
        SessionCheckpointState::ActiveEntry{i, i, fx.grid.Cell(0, 0)});
  }

  std::atomic<bool> stop{false};
  std::thread reader([&]() {
    // The monitoring pattern: poll liveness while recovery is in flight.
    while (!stop.load(std::memory_order_relaxed)) {
      (void)session.num_active_users();
      (void)session.num_pending_events();
    }
  });
  ASSERT_TRUE(session.RestoreCheckpointState(std::move(state)).ok());
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(session.num_active_users(), static_cast<size_t>(kStreams));
  EXPECT_EQ(session.open_round(), 3);
}

}  // namespace
}  // namespace retrasyn
