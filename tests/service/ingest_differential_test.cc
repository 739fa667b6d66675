// Differential test of IngestSession's per-shard user table: randomized
// Enter/Move/Quit sequences run against sessions of several shard counts
// and against a reference model built on std::unordered_map (the session's
// semantics written the plain way), and every sealed batch, every event's
// accept/reject code, and the live/pending counts must agree.
//
// The op stream mixes in the edge cases the table has to get right:
// quit-then-re-enter in one round, enter-then-quit cancellation, implicit
// lapse of a silent user, duplicate reports, user ids 0 and UINT64_MAX,
// keys that share a shard residue and collide in the table's hash bits,
// growth through many rehashes with deletions in between, and checkpoint
// save/restore across shard counts.
//
// The grid comes from the RETRASYN_GRID_BACKEND-selected factory, so the
// quadtree CI run checks the session's admission-time transition states
// (a direct MoveIndex, falling back to ClampToReachable for unreachable
// cells) against the reference's clamp-then-index on both backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "geo/grid_factory.h"
#include "geo/state_space.h"
#include "service/ingest_session.h"
#include "service/user_table.h"

namespace retrasyn {
namespace {

constexpr uint64_t kMaxUser = std::numeric_limits<uint64_t>::max();

/// The session's per-user rules over two hash maps, one lookup at a time.
class ReferenceSession {
 public:
  explicit ReferenceSession(const StateSpace& states)
      : states_(states), grid_(states.grid()) {}

  StatusCode Enter(uint64_t user, const Point& p) {
    if (!Finite(p)) return StatusCode::kInvalidArgument;
    auto it = pending_.find(user);
    if (it != pending_.end() && it->second.has_location) {
      ++duplicate_rejections;
      return StatusCode::kFailedPrecondition;
    }
    const bool quitting = it != pending_.end() && it->second.quit;
    if (active_.count(user) != 0 && !quitting) {
      return StatusCode::kFailedPrecondition;
    }
    if (quitting) ++quit_reenters;
    Pending& round = pending_[user];
    round.has_location = true;
    round.is_enter = true;
    round.cell = grid_.Locate(p);
    return StatusCode::kOk;
  }

  StatusCode Move(uint64_t user, const Point& p) {
    if (!Finite(p)) return StatusCode::kInvalidArgument;
    auto it = pending_.find(user);
    if (it != pending_.end() && it->second.quit) {
      return StatusCode::kFailedPrecondition;
    }
    if (it != pending_.end() && it->second.has_location) {
      ++duplicate_rejections;
      return StatusCode::kFailedPrecondition;
    }
    auto active = active_.find(user);
    if (active == active_.end()) return StatusCode::kFailedPrecondition;
    Pending& round = pending_[user];
    round.has_location = true;
    round.is_enter = false;
    const CellId from = active->second.last_cell;
    const CellId located = grid_.Locate(p);
    round.cell = grid_.ClampToReachable(from, located);
    if (round.cell == located) {
      ++direct_moves;
    } else {
      ++clamped_moves;
    }
    return StatusCode::kOk;
  }

  StatusCode Quit(uint64_t user) {
    auto it = pending_.find(user);
    if (it != pending_.end() && it->second.quit && !it->second.has_location) {
      return StatusCode::kFailedPrecondition;
    }
    if (it != pending_.end() && it->second.has_location) {
      if (!it->second.is_enter) return StatusCode::kFailedPrecondition;
      ++enter_cancellations;
      if (it->second.quit) {
        it->second.has_location = false;
        it->second.is_enter = false;
      } else {
        pending_.erase(it);
      }
      return StatusCode::kOk;
    }
    if (active_.count(user) == 0) return StatusCode::kFailedPrecondition;
    pending_[user].quit = true;
    return StatusCode::kOk;
  }

  /// Seals and commits the open round; returns the batch a session emits.
  TimestampBatch Tick() {
    struct Entry {
      uint64_t user;
      int phase;  // 0 = quit, 1 = enter/move
      bool is_enter;
      uint32_t stream_index;
      StateId state;
      CellId cell;
    };
    std::vector<Entry> entries;
    for (const auto& [user, round] : pending_) {
      if (round.quit) {
        const Stream& s = active_.at(user);
        entries.push_back(
            {user, 0, false, s.index, states_.QuitIndex(s.last_cell), 0});
      }
      if (round.has_location && round.is_enter) {
        entries.push_back(
            {user, 1, true, 0, states_.EnterIndex(round.cell), round.cell});
      } else if (round.has_location) {
        const Stream& s = active_.at(user);
        entries.push_back({user, 1, false, s.index,
                           states_.MoveIndex(s.last_cell, round.cell),
                           round.cell});
      }
    }
    for (const auto& [user, s] : active_) {
      auto it = pending_.find(user);
      if (it == pending_.end() ||
          (!it->second.quit && !it->second.has_location)) {
        ++lapses;
        entries.push_back(
            {user, 0, false, s.index, states_.QuitIndex(s.last_cell), 0});
      }
    }
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) {
                return a.user != b.user ? a.user < b.user : a.phase < b.phase;
              });
    TimestampBatch batch;
    batch.t = open_round_++;
    for (Entry& e : entries) {
      if (e.is_enter) e.stream_index = next_index_++;
      UserObservation obs;
      obs.user_index = e.stream_index;
      obs.state = e.state;
      obs.is_quit = e.phase == 0;
      obs.is_enter = e.is_enter;
      if (e.phase == 1) ++batch.num_active;
      batch.observations.push_back(obs);
      if (e.phase == 0) {
        active_.erase(e.user);
      } else {
        active_[e.user] = Stream{e.stream_index, e.cell};
      }
    }
    pending_.clear();
    return batch;
  }

  size_t num_active_users() const {
    size_t n = active_.size();
    for (const auto& [user, round] : pending_) {
      if (round.quit) --n;
      if (round.has_location && round.is_enter) ++n;
    }
    return n;
  }

  size_t num_pending_events() const {
    size_t n = 0;
    for (const auto& [user, round] : pending_) {
      n += (round.quit ? 1 : 0) + (round.has_location ? 1 : 0);
    }
    return n;
  }

  bool active(uint64_t user) const { return active_.count(user) != 0; }
  std::vector<uint64_t> active_users() const {
    std::vector<uint64_t> users;
    for (const auto& [user, s] : active_) users.push_back(user);
    std::sort(users.begin(), users.end());
    return users;
  }

  // Edge-case coverage, tallied as the cases occur.
  int quit_reenters = 0;
  int enter_cancellations = 0;
  int lapses = 0;
  int duplicate_rejections = 0;
  int direct_moves = 0;   ///< the located cell was reachable
  int clamped_moves = 0;  ///< the located cell had to be clamped

 private:
  struct Stream {
    uint32_t index;
    CellId last_cell;
  };
  struct Pending {
    bool quit = false;
    bool has_location = false;
    bool is_enter = false;
    CellId cell = 0;
  };

  static bool Finite(const Point& p) {
    return std::isfinite(p.x) && std::isfinite(p.y);
  }

  const StateSpace& states_;
  const SpatialGrid& grid_;
  std::unordered_map<uint64_t, Stream> active_;
  std::unordered_map<uint64_t, Pending> pending_;
  int64_t open_round_ = 0;
  uint32_t next_index_ = 0;
};

/// Sessions under test, each recording its sealed batches.
struct SessionUnderTest {
  SessionUnderTest(const StateSpace& states, int shards) {
    IngestSessionOptions options;
    options.num_shards = shards;
    session = std::make_unique<IngestSession>(
        states,
        [this](TimestampBatch batch) {
          batches.push_back(std::move(batch));
          return Status::OK();
        },
        telemetry,
        options);
  }
  Telemetry telemetry;  ///< declared first: outlives the session
  std::unique_ptr<IngestSession> session;
  std::vector<TimestampBatch> batches;
};

void ExpectSameBatch(const TimestampBatch& want, const TimestampBatch& got,
                     const char* label) {
  ASSERT_EQ(got.t, want.t) << label;
  ASSERT_EQ(got.num_active, want.num_active) << label << " round " << want.t;
  ASSERT_EQ(got.observations.size(), want.observations.size())
      << label << " round " << want.t;
  for (size_t i = 0; i < want.observations.size(); ++i) {
    const UserObservation& a = want.observations[i];
    const UserObservation& b = got.observations[i];
    ASSERT_TRUE(a.user_index == b.user_index && a.state == b.state &&
                a.is_quit == b.is_quit && a.is_enter == b.is_enter)
        << label << " round " << want.t << " observation " << i;
  }
}

/// Drives the reference and every session with the same events in lockstep.
class Lockstep {
 public:
  Lockstep(const StateSpace& states, const std::vector<int>& shard_counts)
      : states_(states), reference_(states) {
    for (int shards : shard_counts) {
      sessions_.push_back(std::make_unique<SessionUnderTest>(states, shards));
    }
  }

  enum class Op { kEnter, kMove, kQuit };

  void Apply(Op op, uint64_t user, const Point& p) {
    StatusCode want = StatusCode::kOk;
    switch (op) {
      case Op::kEnter: want = reference_.Enter(user, p); break;
      case Op::kMove: want = reference_.Move(user, p); break;
      case Op::kQuit: want = reference_.Quit(user); break;
    }
    for (auto& s : sessions_) {
      Status got;
      switch (op) {
        case Op::kEnter: got = s->session->Enter(user, p); break;
        case Op::kMove: got = s->session->Move(user, p); break;
        case Op::kQuit: got = s->session->Quit(user); break;
      }
      ASSERT_EQ(got.code(), want)
          << "op " << static_cast<int>(op) << " user " << user << " shards "
          << s->session->num_shards() << ": " << got.ToString();
    }
  }

  void Tick() {
    const size_t want_active = reference_.num_active_users();
    const size_t want_pending = reference_.num_pending_events();
    const TimestampBatch want = reference_.Tick();
    for (auto& s : sessions_) {
      ASSERT_EQ(s->session->num_active_users(), want_active);
      ASSERT_EQ(s->session->num_pending_events(), want_pending);
      ASSERT_TRUE(s->session->Tick().ok());
      ASSERT_FALSE(s->batches.empty());
      ExpectSameBatch(want, s->batches.back(),
                      s->session->num_shards() == 1 ? "1 shard" : "sharded");
      ASSERT_EQ(s->session->num_active_users(), reference_.num_active_users());
    }
  }

  /// Replaces every session by a fresh one with the mirrored shard count
  /// (1 <-> 4, others kept), restored from the checkpoint the session itself
  /// saved; all saves must be byte-for-byte the same logical state.
  void SaveAndRestoreAcrossShardCounts() {
    std::vector<SessionCheckpointState> saved;
    for (auto& s : sessions_) saved.push_back(s->session->SaveCheckpointState());
    for (size_t i = 1; i < saved.size(); ++i) {
      ASSERT_EQ(saved[i].open_round, saved[0].open_round);
      ASSERT_EQ(saved[i].next_stream_index, saved[0].next_stream_index);
      ASSERT_EQ(saved[i].active.size(), saved[0].active.size());
      for (size_t j = 0; j < saved[0].active.size(); ++j) {
        ASSERT_EQ(saved[i].active[j].user, saved[0].active[j].user);
        ASSERT_EQ(saved[i].active[j].stream_index,
                  saved[0].active[j].stream_index);
        ASSERT_EQ(saved[i].active[j].last_cell, saved[0].active[j].last_cell);
      }
    }
    std::vector<uint64_t> users;
    for (const auto& e : saved[0].active) users.push_back(e.user);
    ASSERT_EQ(users, reference_.active_users());
    for (size_t i = 0; i < sessions_.size(); ++i) {
      const int shards = sessions_[i]->session->num_shards();
      const int mirrored = shards == 1 ? 4 : shards == 4 ? 1 : shards;
      auto fresh = std::make_unique<SessionUnderTest>(states_, mirrored);
      ASSERT_TRUE(
          fresh->session->RestoreCheckpointState(std::move(saved[i])).ok());
      ASSERT_EQ(fresh->session->num_active_users(),
                reference_.num_active_users());
      sessions_[i] = std::move(fresh);
    }
  }

  ReferenceSession& reference() { return reference_; }

 private:
  const StateSpace& states_;
  ReferenceSession reference_;
  std::vector<std::unique_ptr<SessionUnderTest>> sessions_;
};

struct DifferentialFixture {
  DifferentialFixture()
      : grid(MakeEnvGrid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 8)),
        states(*grid) {}

  Point RandomPoint(Rng& rng) const {
    if (rng.Bernoulli(0.005)) {
      return Point{std::numeric_limits<double>::quiet_NaN(), 1.0};
    }
    return Point{rng.UniformDouble(0.0, 100.0), rng.UniformDouble(0.0, 100.0)};
  }

  std::unique_ptr<SpatialGrid> grid;
  StateSpace states;
};

/// \p count keys landing in shard 0 of \p shards whose table hashes share
/// their top 16 bits with the first one's — so they pile onto one home slot
/// at every capacity up to 65536 slots.
std::vector<uint64_t> CollidingKeys(int shards, size_t count) {
  std::vector<uint64_t> keys;
  uint64_t top = 0;
  for (uint64_t k = 1000003; keys.size() < count; ++k) {
    if (IngestSession::ShardOf(k, shards) != 0) continue;
    const uint64_t bits = UserTable::Hash(k) >> 48;
    if (keys.empty()) top = bits;
    if (bits == top) keys.push_back(k);
  }
  return keys;
}

std::vector<uint64_t> UserPool(Rng& rng) {
  std::vector<uint64_t> pool = {0, 1, kMaxUser, kMaxUser - 1};
  for (int shards : {2, 4}) {
    for (uint64_t k : CollidingKeys(shards, 6)) pool.push_back(k);
  }
  for (int i = 0; i < 120; ++i) pool.push_back(rng());
  return pool;
}

/// One randomized round: about 1.5 events per pooled user, so most users
/// report, many collide with themselves (duplicates, quit/enter reorderings),
/// and a fifth fall silent and lapse.
void RandomRound(Lockstep& lockstep, const DifferentialFixture& fx,
                 const std::vector<uint64_t>& pool, Rng& rng) {
  const size_t events = pool.size() * 3 / 2;
  for (size_t i = 0; i < events; ++i) {
    const uint64_t user = pool[rng.UniformInt(pool.size())];
    const double roll = rng.UniformDouble();
    // Active users mostly move; others mostly enter — but every op stays
    // possible for every user, so the rejection paths run too.
    const bool active = lockstep.reference().active(user);
    Lockstep::Op op;
    if (roll < (active ? 0.15 : 0.55)) {
      op = Lockstep::Op::kEnter;
    } else if (roll < (active ? 0.80 : 0.70)) {
      op = Lockstep::Op::kMove;
    } else {
      op = Lockstep::Op::kQuit;
    }
    lockstep.Apply(op, user, fx.RandomPoint(rng));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IngestDifferentialTest, RandomizedRoundsMatchReferenceAtEveryShardCount) {
  DifferentialFixture fx;
  for (uint64_t seed : {11u, 12u, 13u}) {
    Rng rng(seed);
    const std::vector<uint64_t> pool = UserPool(rng);
    Lockstep lockstep(fx.states, {1, 2, 4, 7});
    for (int round = 0; round < 60; ++round) {
      RandomRound(lockstep, fx, pool, rng);
      ASSERT_NO_FATAL_FAILURE(lockstep.Tick()) << "seed " << seed;
    }
    const ReferenceSession& ref = lockstep.reference();
    EXPECT_GT(ref.quit_reenters, 0) << "seed " << seed;
    EXPECT_GT(ref.enter_cancellations, 0) << "seed " << seed;
    EXPECT_GT(ref.lapses, 0) << "seed " << seed;
    EXPECT_GT(ref.duplicate_rejections, 0) << "seed " << seed;
    // Both admission paths ran: the direct MoveIndex and the clamp fallback.
    EXPECT_GT(ref.direct_moves, 0) << "seed " << seed;
    EXPECT_GT(ref.clamped_moves, 0) << "seed " << seed;
  }
}

TEST(IngestDifferentialTest, ExtremeAndCollidingIdsWalkTheEdgeCases) {
  // Scripted, so every edge case provably runs on ids 0 and UINT64_MAX and
  // on one pile of keys that share shard 0 of 4 and a home slot.
  DifferentialFixture fx;
  Lockstep lockstep(fx.states, {1, 4});
  std::vector<uint64_t> users = {0, kMaxUser};
  for (uint64_t k : CollidingKeys(4, 8)) users.push_back(k);
  // Centers of the uniform 8x8 grid's cells (2, 2), (2, 3) and (7, 7).
  const Point a{31.25, 31.25};
  const Point b{43.75, 31.25};
  const Point far{93.75, 93.75};
  using Op = Lockstep::Op;
  for (uint64_t u : users) {
    ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kEnter, u, a));
    ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kEnter, u, a));  // duplicate
    ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kMove, u, a));   // duplicate
  }
  ASSERT_NO_FATAL_FAILURE(lockstep.Tick());
  for (size_t i = 0; i < users.size(); ++i) {
    const uint64_t u = users[i];
    switch (i % 4) {
      case 0:  // quit, then re-enter in the same round
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kQuit, u, a));
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kMove, u, b));  // rejected
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kEnter, u, b));
        break;
      case 1:  // move with a clamped jump
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kMove, u, far));
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kQuit, u, a));  // rejected
        break;
      case 2:  // silent: lapses at the boundary
        break;
      case 3:  // quit, re-enter, and cancel the re-enter
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kQuit, u, a));
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kEnter, u, b));
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kQuit, u, a));
        ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kQuit, u, a));  // rejected
        break;
    }
  }
  ASSERT_NO_FATAL_FAILURE(lockstep.Tick());
  // Fresh enters cancelled before any report: the rows must vanish without
  // disturbing the colliding keys probed past them.
  for (uint64_t u : users) {
    ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kEnter, u, a));
    ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kQuit, u, a));
  }
  ASSERT_NO_FATAL_FAILURE(lockstep.Tick());
  for (uint64_t u : users) {
    ASSERT_NO_FATAL_FAILURE(lockstep.Apply(Op::kMove, u, b));
  }
  ASSERT_NO_FATAL_FAILURE(lockstep.Tick());
  const ReferenceSession& ref = lockstep.reference();
  EXPECT_GT(ref.quit_reenters, 0);
  EXPECT_GT(ref.enter_cancellations, 0);
  EXPECT_GT(ref.lapses, 0);
  EXPECT_GT(ref.duplicate_rejections, 0);
}

TEST(IngestDifferentialTest, GrowthThroughRehashesWithDeletionsInBetween) {
  // One shard ramps to ~1400 live streams while a tenth quit or lapse every
  // round. A table that starts at UserTable::kMinCapacity slots and stays at
  // most 3/4 full must double at least six times to hold them, and every
  // rehash runs over tombstones the deletions left behind.
  DifferentialFixture fx;
  Lockstep lockstep(fx.states, {1, 3});
  Rng rng(99);
  std::vector<uint64_t> live;
  uint64_t next_user = 1;
  for (int round = 0; round < 30; ++round) {
    std::vector<uint64_t> still_live;
    for (uint64_t u : live) {
      const double roll = rng.UniformDouble();
      if (roll < 0.05) {
        ASSERT_NO_FATAL_FAILURE(
            lockstep.Apply(Lockstep::Op::kQuit, u, Point{}));
      } else if (roll < 0.10) {
        // silent: lapses
      } else {
        ASSERT_NO_FATAL_FAILURE(
            lockstep.Apply(Lockstep::Op::kMove, u, fx.RandomPoint(rng)));
        still_live.push_back(u);
      }
    }
    for (int i = 0; i < 150; ++i) {
      const uint64_t u = (next_user++) * 0x9e3779b97f4a7c15ull;
      ASSERT_NO_FATAL_FAILURE(
          lockstep.Apply(Lockstep::Op::kEnter, u, fx.RandomPoint(rng)));
      still_live.push_back(u);
    }
    live = std::move(still_live);
    ASSERT_NO_FATAL_FAILURE(lockstep.Tick());
    // The reference decides who is live (enters with a NaN point were
    // rejected).
    live.erase(std::remove_if(live.begin(), live.end(),
                              [&](uint64_t u) {
                                return !lockstep.reference().active(u);
                              }),
               live.end());
  }
  EXPECT_GT(lockstep.reference().num_active_users(), 1000u);
}

TEST(IngestDifferentialTest, CheckpointRestoresAcrossOneAndFourShards) {
  DifferentialFixture fx;
  Rng rng(2024);
  const std::vector<uint64_t> pool = UserPool(rng);
  Lockstep lockstep(fx.states, {1, 4});
  for (int round = 0; round < 45; ++round) {
    RandomRound(lockstep, fx, pool, rng);
    ASSERT_NO_FATAL_FAILURE(lockstep.Tick());
    if (round % 15 == 14) {
      // 1 shard -> 4 and 4 -> 1, then keep going against the reference.
      ASSERT_NO_FATAL_FAILURE(lockstep.SaveAndRestoreAcrossShardCounts());
    }
  }
}

}  // namespace
}  // namespace retrasyn
