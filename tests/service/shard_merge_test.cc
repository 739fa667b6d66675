// SealedRunMerger (the merge step of IngestSession::Tick) against a plain
// serial k-way merge of the same sealed runs. For chunk counts 1, 2, 3, 4, 7
// and 64, inline and on a pool, the merged batch must be the same:
// observations, num_active, the order of the quit indices, the stream
// indices the enters draw (from the free list, the retiring buckets and the
// fresh counter, in that order), and the indices written back into the
// sealed entries for the shard commit.
//
// Edge cases: user ids 0 and UINT64_MAX, an empty shard run, every entry in
// one shard, a quit + re-enter pair straddling a pivot position, more chunks
// than entries, an empty round, and one merger reused across rounds of
// different sizes (its scratch is kept).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "service/ingest_session.h"
#include "service/shard_merge.h"

namespace retrasyn {
namespace {

constexpr uint64_t kMaxUser = std::numeric_limits<uint64_t>::max();
constexpr int kChunkCounts[] = {1, 2, 3, 4, 7, 64};

/// What a user sealed this round.
enum class Kind { kMove, kEnter, kQuit, kQuitReenter };

using Runs = std::vector<std::vector<SealedEntry>>;

/// Builds per-shard runs sorted by (user, phase), the way SealShard does.
class RoundBuilder {
 public:
  explicit RoundBuilder(size_t shards) : runs_(shards) {}

  void Add(size_t shard, uint64_t user, Kind kind) {
    const uint32_t state = static_cast<uint32_t>(user % 997);
    if (kind == Kind::kQuit || kind == Kind::kQuitReenter) {
      runs_[shard].push_back(
          SealedEntry{user, next_slot_++, next_owner_++, state, 0, false});
    }
    if (kind == Kind::kMove) {
      runs_[shard].push_back(
          SealedEntry{user, next_slot_++, next_owner_++, state + 1, 1, false});
    }
    if (kind == Kind::kEnter || kind == Kind::kQuitReenter) {
      runs_[shard].push_back(
          SealedEntry{user, next_slot_++, 0, state + 2, 1, true});
    }
  }

  Runs Build() {
    for (auto& run : runs_) {
      std::sort(run.begin(), run.end(),
                [](const SealedEntry& a, const SealedEntry& b) {
                  return a.user != b.user ? a.user < b.user
                                          : a.phase < b.phase;
                });
    }
    return runs_;
  }

 private:
  Runs runs_;
  uint32_t next_slot_ = 0;
  uint32_t next_owner_ = 5000;  // owners of quits and moves
};

/// The index lifecycle an enter draws from: three free indices, two
/// retiring buckets (three indices), one bucket still inside the window,
/// then the fresh counter at 1000.
struct IndexState {
  std::deque<uint32_t> free_indices = {41, 7, 23};
  StreamIndexCursor::Buckets buckets = {
      {0, {5, 17}}, {1, {11}}, {2, {29, 3}}};
  size_t reusable = 3 + 3;
  uint32_t next_fresh = 1000;
};

struct MergeResult {
  TimestampBatch batch;
  std::vector<uint32_t> quit_indices;
  Runs runs;  ///< the runs after the merge (enters carry their index)
  size_t consumed_reusable = 0;
  uint32_t next_fresh = 0;
};

/// The merge as a plain serial k-way merge: the reference.
MergeResult SerialMerge(Runs runs, bool collect_quits) {
  const IndexState indices;
  StreamIndexCursor cursor(indices.free_indices, indices.buckets,
                           indices.reusable, indices.next_fresh);
  MergeResult result;
  std::vector<size_t> pos(runs.size(), 0);
  while (true) {
    size_t min = runs.size();
    for (size_t r = 0; r < runs.size(); ++r) {
      if (pos[r] == runs[r].size()) continue;
      if (min == runs.size() ||
          runs[r][pos[r]].user < runs[min][pos[min]].user) {
        min = r;
      }
    }
    if (min == runs.size()) break;
    SealedEntry& e = runs[min][pos[min]++];
    if (e.is_enter) e.stream_index = cursor.Next();
    UserObservation obs;
    obs.user_index = e.stream_index;
    obs.state = e.state;
    obs.is_quit = e.phase == 0;
    obs.is_enter = e.is_enter;
    result.batch.observations.push_back(obs);
    if (e.phase == 0) {
      if (collect_quits) result.quit_indices.push_back(e.stream_index);
    } else {
      ++result.batch.num_active;
    }
  }
  result.runs = std::move(runs);
  result.consumed_reusable = cursor.consumed_reusable();
  result.next_fresh = cursor.next_fresh();
  return result;
}

/// The merge under test. Starts from a stale, longer buffer and a stale
/// quit list, as a recycled observation buffer and a reused vector would.
MergeResult SplitMerge(SealedRunMerger& merger, Runs runs, int num_chunks,
                       ThreadPool* pool, bool collect_quits) {
  const IndexState indices;
  StreamIndexCursor cursor(indices.free_indices, indices.buckets,
                           indices.reusable, indices.next_fresh);
  std::vector<SealedRun> sealed;
  for (auto& run : runs) {
    SealedRun s{run.data(), run.size(), 0, 0};
    for (const SealedEntry& e : run) {
      s.num_quits += e.phase == 0 ? 1 : 0;
      s.num_enters += e.is_enter ? 1 : 0;
    }
    sealed.push_back(s);
  }
  MergeResult result;
  UserObservation stale;
  stale.user_index = 0xDEAD;
  stale.state = 0xBEEF;
  stale.is_quit = true;
  stale.is_enter = true;
  result.batch.observations.assign(300, stale);
  result.quit_indices = {0xDEAD};
  merger.Merge(sealed, num_chunks, pool, cursor, &result.batch,
               collect_quits ? &result.quit_indices : nullptr);
  if (!collect_quits) result.quit_indices.clear();
  result.runs = std::move(runs);
  result.consumed_reusable = cursor.consumed_reusable();
  result.next_fresh = cursor.next_fresh();
  return result;
}

void ExpectSameMerge(const MergeResult& want, const MergeResult& got,
                     const std::string& label) {
  ASSERT_EQ(got.batch.observations.size(), want.batch.observations.size())
      << label;
  for (size_t i = 0; i < want.batch.observations.size(); ++i) {
    const UserObservation& a = want.batch.observations[i];
    const UserObservation& b = got.batch.observations[i];
    ASSERT_TRUE(a.user_index == b.user_index && a.state == b.state &&
                a.is_quit == b.is_quit && a.is_enter == b.is_enter)
        << label << " observation " << i << ": want index " << a.user_index
        << " state " << a.state << ", got index " << b.user_index
        << " state " << b.state;
  }
  EXPECT_EQ(got.batch.num_active, want.batch.num_active) << label;
  EXPECT_EQ(got.quit_indices, want.quit_indices) << label;
  EXPECT_EQ(got.consumed_reusable, want.consumed_reusable) << label;
  EXPECT_EQ(got.next_fresh, want.next_fresh) << label;
  ASSERT_EQ(got.runs.size(), want.runs.size()) << label;
  for (size_t r = 0; r < want.runs.size(); ++r) {
    for (size_t i = 0; i < want.runs[r].size(); ++i) {
      ASSERT_EQ(got.runs[r][i].stream_index, want.runs[r][i].stream_index)
          << label << " run " << r << " entry " << i;
    }
  }
}

/// Every chunk count, inline and on a 4-executor pool, with and without
/// quit collection, through one merger per mode (so its scratch is reused
/// across chunk counts) — all against the serial reference.
void ExpectAllChunkCountsMatch(const Runs& runs, const std::string& label) {
  ThreadPool pool(4);
  for (bool collect_quits : {true, false}) {
    const MergeResult want = SerialMerge(runs, collect_quits);
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SealedRunMerger merger;
      for (int chunks : kChunkCounts) {
        const std::string where =
            label + " chunks " + std::to_string(chunks) +
            (p != nullptr ? " pool" : " inline") +
            (collect_quits ? "" : " no-quits");
        ASSERT_NO_FATAL_FAILURE(ExpectSameMerge(
            want, SplitMerge(merger, runs, chunks, p, collect_quits), where));
      }
    }
  }
}

Kind RandomKind(Rng& rng) {
  const double roll = rng.UniformDouble();
  if (roll < 0.70) return Kind::kMove;
  if (roll < 0.82) return Kind::kEnter;
  if (roll < 0.94) return Kind::kQuit;
  return Kind::kQuitReenter;
}

TEST(ShardMergeTest, RandomRoundsMatchSerialMergeAtEveryChunkCount) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    constexpr int kShards = 4;
    RoundBuilder round(kShards);
    round.Add(IngestSession::ShardOf(0, kShards), 0, Kind::kQuitReenter);
    round.Add(IngestSession::ShardOf(kMaxUser, kShards), kMaxUser,
              Kind::kEnter);
    const size_t users = 50 + rng.UniformInt(uint64_t{400});
    for (size_t i = 0; i < users; ++i) {
      const uint64_t user = 1 + rng.UniformInt(kMaxUser - 2);
      round.Add(IngestSession::ShardOf(user, kShards), user, RandomKind(rng));
    }
    const Runs runs = round.Build();
    // Enough enters to drain the free list and the retiring buckets and
    // then draw fresh indices.
    const MergeResult reference = SerialMerge(runs, true);
    ASSERT_EQ(reference.consumed_reusable, IndexState().reusable);
    ASSERT_GT(reference.next_fresh, IndexState().next_fresh);
    ASSERT_NO_FATAL_FAILURE(
        ExpectAllChunkCountsMatch(runs, "seed " + std::to_string(seed)));
  }
}

TEST(ShardMergeTest, ExtremeIdsAndAnEmptyRun) {
  // Run 1 stays empty; ids 0 and UINT64_MAX sit at the ends of runs 0 and 2.
  RoundBuilder round(3);
  round.Add(0, 0, Kind::kQuitReenter);
  round.Add(0, 10, Kind::kMove);
  round.Add(0, 30, Kind::kEnter);
  round.Add(2, 20, Kind::kQuit);
  round.Add(2, 40, Kind::kEnter);
  round.Add(2, kMaxUser - 1, Kind::kMove);
  round.Add(2, kMaxUser, Kind::kQuitReenter);
  const Runs runs = round.Build();
  ASSERT_TRUE(runs[1].empty());
  ExpectAllChunkCountsMatch(runs, "extreme ids");
}

TEST(ShardMergeTest, EveryEntryInOneShard) {
  constexpr int kShards = 4;
  RoundBuilder round(kShards);
  Rng rng(7);
  int added = 0;
  for (uint64_t user = 1000003; added < 120; ++user) {
    if (IngestSession::ShardOf(user, kShards) != 0) continue;
    round.Add(0, user, RandomKind(rng));
    ++added;
  }
  ExpectAllChunkCountsMatch(round.Build(), "one shard");
}

TEST(ShardMergeTest, QuitAndReenterStraddlingASplitPosition) {
  // Run 0, the largest, holds 21 quit + re-enter pairs (42 entries). The
  // merger takes its pivots at positions c * 42 / chunks; at 4 chunks that
  // includes 21, a re-enter whose quit sits at 20, and at 7 chunks 6 * 42 / 7
  // = 36 is a quit. Runs 1 and 2 interleave users on both sides.
  RoundBuilder round(3);
  for (uint64_t i = 0; i < 21; ++i) {
    round.Add(0, 100 + 10 * i, Kind::kQuitReenter);
    round.Add(1, 101 + 10 * i, i % 2 == 0 ? Kind::kMove : Kind::kEnter);
  }
  round.Add(2, 205, Kind::kQuit);
  round.Add(2, 305, Kind::kEnter);
  const Runs runs = round.Build();
  ASSERT_EQ(runs[0].size(), 42u);
  ASSERT_TRUE(runs[0][21].is_enter && runs[0][20].phase == 0 &&
              runs[0][21].user == runs[0][20].user);
  ExpectAllChunkCountsMatch(runs, "straddling pair");
}

TEST(ShardMergeTest, MoreChunksThanEntriesAndAnEmptyRound) {
  RoundBuilder tiny(2);
  tiny.Add(0, 5, Kind::kQuitReenter);
  tiny.Add(1, 6, Kind::kEnter);
  ExpectAllChunkCountsMatch(tiny.Build(), "tiny");
  ExpectAllChunkCountsMatch(Runs(4), "empty round");
}

TEST(ShardMergeTest, OneMergerAcrossRoundsOfDifferentSizes) {
  // The merger keeps its scratch; rounds that shrink and grow must not see
  // a previous round's regions or counts.
  ThreadPool pool(4);
  SealedRunMerger merger;
  Rng rng(99);
  for (int round_index = 0; round_index < 30; ++round_index) {
    RoundBuilder round(4);
    const size_t users = rng.UniformInt(uint64_t{300});
    for (size_t i = 0; i < users; ++i) {
      const uint64_t user = rng();
      round.Add(IngestSession::ShardOf(user, 4), user, RandomKind(rng));
    }
    const Runs runs = round.Build();
    const int chunks = kChunkCounts[round_index % 6];
    ASSERT_NO_FATAL_FAILURE(ExpectSameMerge(
        SerialMerge(runs, true), SplitMerge(merger, runs, chunks, &pool, true),
        "round " + std::to_string(round_index)));
  }
}

TEST(ShardMergeTest, ChunkCountFollowsPoolAndSize) {
  EXPECT_EQ(SealedRunMerger::ChunkCount(1 << 20, 0), 1);  // no pool
  EXPECT_EQ(SealedRunMerger::ChunkCount(0, 4), 1);
  EXPECT_EQ(SealedRunMerger::ChunkCount(5000, 4), 1);
  EXPECT_EQ(SealedRunMerger::ChunkCount(20000, 2), 4);
  EXPECT_EQ(SealedRunMerger::ChunkCount(107384, 4), 16);
  EXPECT_EQ(SealedRunMerger::ChunkCount(1 << 20, 8), 32);
}

}  // namespace
}  // namespace retrasyn
