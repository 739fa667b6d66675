// IngestSession semantics: per-user event validation, implicit quits on
// reporting gaps, arrival-order independence, and bit-exact equivalence of
// the replayed session path with the legacy StreamFeeder batch path.

#include "geo/grid.h"
#include "service/ingest_session.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "service/replay.h"
#include "service/trajectory_service.h"
#include "stream/feeder.h"
#include "stream/hotspot_generator.h"
#include "stream/random_walk_generator.h"

namespace retrasyn {
namespace {

struct SessionFixture {
  SessionFixture()
      : grid(BoundingBox{0.0, 0.0, 100.0, 100.0}, 4), states(grid) {}

  /// A session that records the closed batches.
  IngestSession MakeSession() {
    return IngestSession(
        states,
        [this](const TimestampBatch& batch) {
          batches.push_back(batch);
          return Status::OK();
        },
        telemetry);
  }

  Point CellPoint(uint32_t row, uint32_t col) const {
    return grid.CellCenter(grid.Cell(row, col));
  }

  UniformGrid grid;
  StateSpace states;
  Telemetry telemetry;
  std::vector<TimestampBatch> batches;
};

void ExpectEqualSets(const CellStreamSet& a, const CellStreamSet& b) {
  ASSERT_EQ(a.num_timestamps(), b.num_timestamps());
  ASSERT_EQ(a.streams().size(), b.streams().size());
  EXPECT_EQ(a.TotalPoints(), b.TotalPoints());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time) << i;
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells) << i;
  }
}

TEST(IngestSessionTest, BasicLifecycleBuildsFeederShapedBatches) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();

  ASSERT_TRUE(session.Enter(7, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());                  // t=0: e
  ASSERT_TRUE(session.Move(7, fx.CellPoint(0, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());                  // t=1: m
  ASSERT_TRUE(session.Quit(7).ok());
  ASSERT_TRUE(session.Tick().ok());                  // t=2: q

  ASSERT_EQ(fx.batches.size(), 3u);
  ASSERT_EQ(fx.batches[0].observations.size(), 1u);
  EXPECT_TRUE(fx.batches[0].observations[0].is_enter);
  EXPECT_EQ(fx.batches[0].observations[0].state,
            fx.states.EnterIndex(fx.grid.Cell(0, 0)));
  EXPECT_EQ(fx.batches[0].num_active, 1u);

  ASSERT_EQ(fx.batches[1].observations.size(), 1u);
  EXPECT_EQ(fx.batches[1].observations[0].state,
            fx.states.MoveIndex(fx.grid.Cell(0, 0), fx.grid.Cell(0, 1)));
  EXPECT_EQ(fx.batches[1].num_active, 1u);

  ASSERT_EQ(fx.batches[2].observations.size(), 1u);
  EXPECT_TRUE(fx.batches[2].observations[0].is_quit);
  EXPECT_EQ(fx.batches[2].observations[0].state,
            fx.states.QuitIndex(fx.grid.Cell(0, 1)));
  EXPECT_EQ(fx.batches[2].num_active, 0u);
}

TEST(IngestSessionTest, DuplicateEnterRejected) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  // Same round.
  Status again = session.Enter(1, fx.CellPoint(1, 1));
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Tick().ok());
  // Next round, still active.
  again = session.Enter(1, fx.CellPoint(1, 1));
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
}

TEST(IngestSessionTest, MoveBeforeEnterRejected) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  const Status st = session.Move(5, fx.CellPoint(0, 0));
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("Enter"), std::string::npos);
}

TEST(IngestSessionTest, QuitTwiceRejected) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(3, fx.CellPoint(2, 2)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Quit(3).ok());
  EXPECT_EQ(session.Quit(3).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Tick().ok());
  // The stream is gone entirely now.
  EXPECT_EQ(session.Quit(3).code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(session.Move(3, fx.CellPoint(2, 2)).code(),
            StatusCode::kFailedPrecondition);
}

TEST(IngestSessionTest, QuitInMoveRoundRejected) {
  // Def. 5: the quit transition carries the previous round's location, so a
  // user that already Moved this round cannot also quit in it.
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(4, fx.CellPoint(1, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Move(4, fx.CellPoint(1, 2)).ok());
  const Status st = session.Quit(4);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("previous round"), std::string::npos);
}

TEST(IngestSessionTest, QuitCancelsSameRoundEnter) {
  // An Enter still buffered in the open round has sent no report, so a Quit
  // simply cancels it: the aborted stream never existed.
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(4, fx.CellPoint(1, 1)).ok());
  EXPECT_EQ(session.num_active_users(), 1u);
  ASSERT_TRUE(session.Quit(4).ok());
  EXPECT_EQ(session.num_active_users(), 0u);
  EXPECT_EQ(session.num_pending_events(), 0u);
  // A second quit finds nothing to cancel.
  EXPECT_EQ(session.Quit(4).code(), StatusCode::kFailedPrecondition);
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_EQ(fx.batches.size(), 1u);
  EXPECT_TRUE(fx.batches[0].observations.empty());
  // The user can re-enter afterwards as if nothing happened — and the
  // canceled enter burned no stream index.
  ASSERT_TRUE(session.Enter(4, fx.CellPoint(2, 2)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_EQ(fx.batches[1].observations.size(), 1u);
  EXPECT_TRUE(fx.batches[1].observations[0].is_enter);
  EXPECT_EQ(fx.batches[1].observations[0].user_index, 0u);
}

TEST(IngestSessionTest, QuitEnterQuitKeepsOldStreamQuit) {
  // Quit -> Enter -> Quit in one round: the first quit closes the *old*
  // stream (previous round's location) and must survive; the second quit
  // only cancels the re-entry.
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(8, fx.CellPoint(1, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Quit(8).ok());
  ASSERT_TRUE(session.Enter(8, fx.CellPoint(3, 3)).ok());
  EXPECT_EQ(session.num_pending_events(), 2u);
  ASSERT_TRUE(session.Quit(8).ok());  // cancels the enter, keeps the quit
  EXPECT_EQ(session.num_pending_events(), 1u);
  EXPECT_EQ(session.num_active_users(), 0u);
  ASSERT_TRUE(session.Tick().ok());
  const TimestampBatch& last = fx.batches.back();
  ASSERT_EQ(last.observations.size(), 1u);
  EXPECT_TRUE(last.observations[0].is_quit);
  EXPECT_EQ(last.observations[0].state,
            fx.states.QuitIndex(fx.grid.Cell(1, 1)));
}

TEST(IngestSessionTest, EventsAfterAdvanceToApplyToNewRound) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(2, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.AdvanceTo(5).ok());
  EXPECT_EQ(session.open_round(), 5);
  ASSERT_EQ(fx.batches.size(), 5u);
  // The user reported at t=0 only; the gap quit it implicitly at t=1.
  EXPECT_EQ(session.Move(2, fx.CellPoint(0, 1)).code(),
            StatusCode::kFailedPrecondition);
  // Going backwards is rejected.
  EXPECT_EQ(session.AdvanceTo(3).code(), StatusCode::kInvalidArgument);
  // Re-entering starts a second stream segment at the open round.
  ASSERT_TRUE(session.Enter(2, fx.CellPoint(0, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());
  const TimestampBatch& last = fx.batches.back();
  ASSERT_EQ(last.observations.size(), 1u);
  EXPECT_TRUE(last.observations[0].is_enter);
  EXPECT_EQ(last.t, 5);
}

TEST(IngestSessionTest, SilentUserQuitsImplicitly) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(9, fx.CellPoint(3, 3)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Tick().ok());  // user 9 silent at t=1
  ASSERT_EQ(fx.batches.size(), 2u);
  ASSERT_EQ(fx.batches[1].observations.size(), 1u);
  EXPECT_TRUE(fx.batches[1].observations[0].is_quit);
  EXPECT_EQ(fx.batches[1].observations[0].state,
            fx.states.QuitIndex(fx.grid.Cell(3, 3)));
  EXPECT_EQ(fx.batches[1].num_active, 0u);
  EXPECT_EQ(session.num_active_users(), 0u);
}

TEST(IngestSessionTest, NonAdjacentMoveClampedLikeFeeder) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  // Jump across the grid: must clamp to a neighbor of (0,0).
  ASSERT_TRUE(session.Move(1, fx.CellPoint(3, 3)).ok());
  ASSERT_TRUE(session.Tick().ok());
  const StateId state = fx.batches[1].observations[0].state;
  const TransitionState decoded = fx.states.Decode(state);
  EXPECT_EQ(decoded.kind, StateKind::kMove);
  EXPECT_EQ(decoded.from, fx.grid.Cell(0, 0));
  EXPECT_TRUE(fx.grid.AreNeighbors(fx.grid.Cell(0, 0), decoded.to));
  EXPECT_EQ(decoded.to, fx.grid.Cell(1, 1));  // closest neighbor to (3,3)
  // The commit decodes the clamped cell from the state: the next move
  // starts there.
  ASSERT_TRUE(session.Move(1, fx.CellPoint(2, 2)).ok());
  ASSERT_TRUE(session.Tick().ok());
  const TransitionState next =
      fx.states.Decode(fx.batches[2].observations[0].state);
  EXPECT_EQ(next.kind, StateKind::kMove);
  EXPECT_EQ(next.from, fx.grid.Cell(1, 1));
  EXPECT_EQ(next.to, fx.grid.Cell(2, 2));
}

TEST(IngestSessionTest, PeakPendingGaugeIsTheHighWaterMarkAcrossRounds) {
  SessionFixture fx;
  Telemetry telemetry;
  auto make_session = [&] {
    return std::make_unique<IngestSession>(
        fx.states, [](TimestampBatch) { return Status::OK(); }, telemetry);
  };
  const Gauge* pending_gauge = telemetry.registry().GetGauge(
      "retrasyn_ingest_pending_events", "", {{"shard", "0"}});
  const Gauge* peak_gauge = telemetry.registry().GetGauge(
      "retrasyn_ingest_pending_events_peak", "", {{"shard", "0"}});
  auto session = make_session();
  // The exported pending gauge agrees with the session, and the peak gauge
  // holds the high-water mark.
  auto expect_peak = [&](uint64_t pending, uint64_t peak) {
    EXPECT_EQ(session->num_pending_events(), pending);
    EXPECT_EQ(pending_gauge->Value(), static_cast<int64_t>(pending));
    EXPECT_EQ(peak_gauge->Value(), static_cast<int64_t>(peak));
  };
  expect_peak(0, 0);
  // Round 0: five enters.
  for (uint64_t u = 1; u <= 5; ++u) {
    ASSERT_TRUE(session->Enter(u, fx.CellPoint(0, 0)).ok());
  }
  expect_peak(5, 5);
  ASSERT_TRUE(session->Tick().ok());
  expect_peak(0, 5);
  // Round 1: three moves and a quit stay below the mark.
  for (uint64_t u = 1; u <= 3; ++u) {
    ASSERT_TRUE(session->Move(u, fx.CellPoint(0, 1)).ok());
  }
  ASSERT_TRUE(session->Quit(4).ok());
  expect_peak(4, 5);
  ASSERT_TRUE(session->Tick().ok());
  // Round 2: rises to 7; a cancelled enter lowers pending, not the mark.
  for (uint64_t u = 1; u <= 3; ++u) {
    ASSERT_TRUE(session->Move(u, fx.CellPoint(1, 1)).ok());
  }
  for (uint64_t u = 10; u < 14; ++u) {
    ASSERT_TRUE(session->Enter(u, fx.CellPoint(2, 2)).ok());
  }
  expect_peak(7, 7);
  ASSERT_TRUE(session->Quit(13).ok());
  expect_peak(6, 7);
  ASSERT_TRUE(session->Tick().ok());
  expect_peak(0, 7);
  // A later session on the same registry continues from the exported mark.
  session = make_session();
  ASSERT_TRUE(session->Enter(1, fx.CellPoint(0, 0)).ok());
  expect_peak(1, 7);
  for (uint64_t u = 2; u <= 8; ++u) {
    ASSERT_TRUE(session->Enter(u, fx.CellPoint(0, 0)).ok());
  }
  expect_peak(8, 8);
}

TEST(IngestSessionTest, NonFiniteLocationRejected) {
  SessionFixture fx;
  IngestSession session = fx.MakeSession();
  const double nan = std::nan("");
  EXPECT_EQ(session.Enter(1, Point{nan, 0.0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(session.Move(1, Point{0.0, nan}).code(),
            StatusCode::kInvalidArgument);
}

TEST(IngestSessionTest, BatchesIndependentOfArrivalOrder) {
  SessionFixture fx;
  auto run = [&fx](bool reversed) {
    std::vector<TimestampBatch> batches;
    IngestSession session(fx.states, [&batches](const TimestampBatch& batch) {
      batches.push_back(batch);
      return Status::OK();
    }, fx.telemetry);
    std::vector<uint64_t> users{1, 2, 3, 4, 5};
    if (reversed) std::reverse(users.begin(), users.end());
    for (uint64_t u : users) {
      EXPECT_TRUE(
          session.Enter(u, fx.CellPoint(u % 4, (u / 2) % 4)).ok());
    }
    EXPECT_TRUE(session.Tick().ok());
    for (uint64_t u : users) {
      EXPECT_TRUE(session.Move(u, fx.CellPoint((u + 1) % 4, u % 4)).ok());
    }
    EXPECT_TRUE(session.Tick().ok());
    return batches;
  };
  const auto forward = run(false);
  const auto backward = run(true);
  ASSERT_EQ(forward.size(), backward.size());
  for (size_t t = 0; t < forward.size(); ++t) {
    ASSERT_EQ(forward[t].observations.size(),
              backward[t].observations.size());
    EXPECT_EQ(forward[t].num_active, backward[t].num_active);
    for (size_t i = 0; i < forward[t].observations.size(); ++i) {
      EXPECT_EQ(forward[t].observations[i].state,
                backward[t].observations[i].state);
      EXPECT_EQ(forward[t].observations[i].is_enter,
                backward[t].observations[i].is_enter);
      EXPECT_EQ(forward[t].observations[i].is_quit,
                backward[t].observations[i].is_quit);
    }
  }
}

TEST(IngestSessionTest, ReplayMatchesStreamFeederBatches) {
  // The session-built batches must equal the legacy feeder's, byte for byte
  // (up to engine-facing stream indices, which are renumbered but consistent).
  RandomWalkConfig config;
  config.num_timestamps = 40;
  config.initial_users = 120;
  config.mean_arrivals = 10.0;
  Rng rng(77);
  const StreamDatabase db = GenerateRandomWalkStreams(config, rng);
  const UniformGrid grid(db.box(), 4);
  const StateSpace states(grid);
  const StreamFeeder feeder(db, grid, states);

  std::vector<TimestampBatch> batches;
  Telemetry telemetry;
  IngestSession session(states, [&batches](const TimestampBatch& batch) {
    batches.push_back(batch);
    return Status::OK();
  }, telemetry);
  // Replay manually (stream indices as user ids), mirroring ReplayDatabase.
  for (int64_t t = 0; t < db.num_timestamps(); ++t) {
    for (uint32_t idx = 0; idx < db.streams().size(); ++idx) {
      const UserStream& s = db.streams()[idx];
      if (s.enter_time == t) {
        ASSERT_TRUE(session.Enter(idx, s.points.front()).ok());
      } else if (s.ActiveAt(t)) {
        ASSERT_TRUE(session.Move(idx, s.At(t)).ok());
      }
      // Quits are left implicit: the session must synthesize them.
    }
    ASSERT_TRUE(session.Tick().ok());
  }

  ASSERT_EQ(static_cast<int64_t>(batches.size()), feeder.num_timestamps());
  for (int64_t t = 0; t < feeder.num_timestamps(); ++t) {
    const TimestampBatch& expected = feeder.Batch(t);
    const TimestampBatch& got = batches[t];
    ASSERT_EQ(got.observations.size(), expected.observations.size())
        << "t=" << t;
    EXPECT_EQ(got.num_active, expected.num_active) << "t=" << t;
    for (size_t i = 0; i < expected.observations.size(); ++i) {
      EXPECT_EQ(got.observations[i].state, expected.observations[i].state)
          << "t=" << t << " i=" << i;
      EXPECT_EQ(got.observations[i].is_enter,
                expected.observations[i].is_enter);
      EXPECT_EQ(got.observations[i].is_quit, expected.observations[i].is_quit);
    }
  }
}

void ExpectEqualBatches(const std::vector<TimestampBatch>& got,
                        const std::vector<TimestampBatch>& expected) {
  ASSERT_EQ(got.size(), expected.size());
  for (size_t t = 0; t < expected.size(); ++t) {
    EXPECT_EQ(got[t].t, expected[t].t);
    EXPECT_EQ(got[t].num_active, expected[t].num_active) << "t=" << t;
    ASSERT_EQ(got[t].observations.size(), expected[t].observations.size())
        << "t=" << t;
    for (size_t i = 0; i < expected[t].observations.size(); ++i) {
      const UserObservation& a = got[t].observations[i];
      const UserObservation& b = expected[t].observations[i];
      EXPECT_EQ(a.user_index, b.user_index) << "t=" << t << " i=" << i;
      EXPECT_EQ(a.state, b.state) << "t=" << t << " i=" << i;
      EXPECT_EQ(a.is_enter, b.is_enter) << "t=" << t << " i=" << i;
      EXPECT_EQ(a.is_quit, b.is_quit) << "t=" << t << " i=" << i;
    }
  }
}

TEST(IngestSessionTest, FailedHandlerRetryIsByteIdentical) {
  // Regression for the Tick() atomicity bug: a failing handler must leave
  // the session un-mutated — stream indices included — so that a retried
  // Tick() hands the handler the identical batch and the full run matches a
  // never-failed one byte for byte.
  SessionFixture fx;
  auto script = [&fx](IngestSession& session, int64_t t) {
    switch (t) {
      case 0:
        ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
        ASSERT_TRUE(session.Enter(2, fx.CellPoint(1, 1)).ok());
        break;
      case 1:
        ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 1)).ok());
        // user 2 silent: implicit quit.
        ASSERT_TRUE(session.Enter(3, fx.CellPoint(2, 2)).ok());
        break;
      case 2:
        ASSERT_TRUE(session.Move(1, fx.CellPoint(0, 0)).ok());
        ASSERT_TRUE(session.Move(3, fx.CellPoint(2, 3)).ok());
        ASSERT_TRUE(session.Enter(4, fx.CellPoint(3, 0)).ok());
        ASSERT_TRUE(session.Enter(2, fx.CellPoint(1, 2)).ok());
        break;
      default:
        ASSERT_TRUE(session.Move(4, fx.CellPoint(3, 1)).ok());
        break;
    }
  };

  // Clean run.
  std::vector<TimestampBatch> clean;
  {
    IngestSession session(fx.states, [&clean](TimestampBatch batch) {
      clean.push_back(std::move(batch));
      return Status::OK();
    }, fx.telemetry);
    for (int64_t t = 0; t < 4; ++t) {
      script(session, t);
      ASSERT_TRUE(session.Tick().ok());
    }
  }

  // Failing run: the handler rejects the first attempt at t=2 (twice, to
  // exercise repeated retries).
  std::vector<TimestampBatch> flaky;
  int failures_left = 2;
  IngestSession session(fx.states,
                        [&flaky, &failures_left](TimestampBatch batch) {
                          if (batch.t == 2 && failures_left > 0) {
                            --failures_left;
                            return Status::IOError("collector offline");
                          }
                          flaky.push_back(std::move(batch));
                          return Status::OK();
                        }, fx.telemetry);
  for (int64_t t = 0; t < 4; ++t) {
    script(session, t);
    if (t == 2) {
      const size_t pending = session.num_pending_events();
      Status st = session.Tick();
      EXPECT_EQ(st.code(), StatusCode::kIOError);
      // The round is still open with its events intact...
      EXPECT_EQ(session.open_round(), 2);
      EXPECT_EQ(session.num_pending_events(), pending);
      EXPECT_EQ(session.Tick().code(), StatusCode::kIOError);  // retry 1
    }
    ASSERT_TRUE(session.Tick().ok()) << "t=" << t;  // ...and retry succeeds.
  }
  ExpectEqualBatches(flaky, clean);
}

TEST(IngestSessionTest, BatchInvariantUnderArrivalPermutations) {
  // Property: the sealed batch is a pure function of the *set* of events
  // buffered for the round, not of their arrival order. Randomly scripted
  // rounds, replayed under several shuffles, must seal byte-identical
  // batches (stream indices included).
  SessionFixture fx;
  struct Event {
    uint64_t user;
    int op;  // 0 = enter, 1 = move, 2 = quit
    Point point;
  };
  constexpr int kRounds = 8;
  constexpr uint64_t kUsers = 48;

  // Script the rounds once, deterministically, tracking liveness so every
  // event is valid; at most one event per user per round keeps the claim
  // exact (a same-user Quit/Enter pair in one round is order-sensitive by
  // design).
  std::mt19937 script_rng(20260729);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  auto random_point = [&] {
    return Point{unit(script_rng) * 100.0, unit(script_rng) * 100.0};
  };
  std::vector<bool> live(kUsers, false);
  std::vector<std::vector<Event>> rounds(kRounds);
  for (int t = 0; t < kRounds; ++t) {
    for (uint64_t u = 0; u < kUsers; ++u) {
      const double r = unit(script_rng);
      if (live[u]) {
        if (r < 0.55) {
          rounds[t].push_back(Event{u, 1, random_point()});
        } else if (r < 0.75) {
          rounds[t].push_back(Event{u, 2, Point{}});
          live[u] = false;
        } else {
          live[u] = false;  // silent: implicit quit
        }
      } else if (r < 0.4) {
        rounds[t].push_back(Event{u, 0, random_point()});
        live[u] = true;
      }
    }
  }

  auto run = [&](uint32_t shuffle_seed) {
    std::vector<TimestampBatch> batches;
    IngestSession session(fx.states, [&batches](TimestampBatch batch) {
      batches.push_back(std::move(batch));
      return Status::OK();
    }, fx.telemetry);
    std::mt19937 shuffle_rng(shuffle_seed);
    for (int t = 0; t < kRounds; ++t) {
      std::vector<Event> events = rounds[t];
      if (shuffle_seed != 0) {
        std::shuffle(events.begin(), events.end(), shuffle_rng);
      }
      for (const Event& e : events) {
        switch (e.op) {
          case 0:
            EXPECT_TRUE(session.Enter(e.user, e.point).ok());
            break;
          case 1:
            EXPECT_TRUE(session.Move(e.user, e.point).ok());
            break;
          default:
            EXPECT_TRUE(session.Quit(e.user).ok());
            break;
        }
      }
      EXPECT_TRUE(session.Tick().ok());
    }
    return batches;
  };

  const std::vector<TimestampBatch> canonical = run(0);
  uint64_t total_events = 0;
  for (const auto& r : rounds) total_events += r.size();
  ASSERT_GT(total_events, 100u);  // the script actually exercises something
  for (uint32_t seed : {7u, 99u, 123456u, 888u}) {
    ExpectEqualBatches(run(seed), canonical);
  }
}

// --- Stream-index lifecycle (recycling + the 2^30 cap) ---------------------

IngestSessionOptions Recycling(int window) {
  IngestSessionOptions options;
  options.window = window;
  return options;
}

TEST(IngestSessionTest, RecyclesQuitIndexOncePastWindow) {
  SessionFixture fx;
  std::vector<TimestampBatch> batches;
  IngestSession session(
      fx.states,
      [&batches](TimestampBatch batch) {
        batches.push_back(std::move(batch));
        return Status::OK();
      },
      fx.telemetry,
      Recycling(/*window=*/2));

  // t=0: A (idx 0) and B (idx 1) enter.
  ASSERT_TRUE(session.Enter(100, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Enter(200, fx.CellPoint(1, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());
  // t=1: A quits (quit round 1); B moves.
  ASSERT_TRUE(session.Quit(100).ok());
  ASSERT_TRUE(session.Move(200, fx.CellPoint(1, 2)).ok());
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(session.num_retiring_indices(), 1u);
  // t=2: quit round 1 is still inside the window (1 > 2 - 2), so a new
  // enter must mint a fresh index.
  ASSERT_TRUE(session.Enter(300, fx.CellPoint(2, 2)).ok());
  ASSERT_TRUE(session.Move(200, fx.CellPoint(1, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(batches[2].observations[1].user_index, 2u);  // user 300
  EXPECT_EQ(session.num_free_indices(), 0u);
  // t=3: quit round 1 <= 3 - 2 — index 0 retires and the next enter takes it.
  ASSERT_TRUE(session.Enter(400, fx.CellPoint(3, 3)).ok());
  ASSERT_TRUE(session.Move(200, fx.CellPoint(1, 2)).ok());
  ASSERT_TRUE(session.Move(300, fx.CellPoint(2, 3)).ok());
  ASSERT_TRUE(session.Tick().ok());
  const TimestampBatch& reuse = batches[3];
  ASSERT_EQ(reuse.observations.size(), 3u);
  bool saw_reuse = false;
  for (const UserObservation& obs : reuse.observations) {
    if (obs.is_enter) {
      EXPECT_EQ(obs.user_index, 0u);  // recycled, not a fresh 3
      saw_reuse = true;
    }
  }
  EXPECT_TRUE(saw_reuse);
  EXPECT_EQ(session.index_high_water(), 3u);
  EXPECT_EQ(session.num_retiring_indices(), 0u);
  EXPECT_EQ(session.num_free_indices(), 0u);
}

TEST(IngestSessionTest, RecycledIndicesReusedOldestFirst) {
  SessionFixture fx;
  std::vector<TimestampBatch> batches;
  IngestSession session(
      fx.states,
      [&batches](TimestampBatch batch) {
        batches.push_back(std::move(batch));
        return Status::OK();
      },
      fx.telemetry,
      Recycling(/*window=*/1));

  // Three streams enter; they quit in rounds 1 (idx 1), 2 (idx 0 and 2).
  for (uint64_t u : {0u, 1u, 2u}) {
    ASSERT_TRUE(session.Enter(u, fx.CellPoint(u % 4, u % 4)).ok());
  }
  ASSERT_TRUE(session.Tick().ok());  // t=0
  ASSERT_TRUE(session.Quit(1).ok());
  ASSERT_TRUE(session.Move(0, fx.CellPoint(0, 1)).ok());
  ASSERT_TRUE(session.Move(2, fx.CellPoint(2, 3)).ok());
  ASSERT_TRUE(session.Tick().ok());  // t=1: quit bucket (1, [1])
  ASSERT_TRUE(session.Quit(0).ok());
  ASSERT_TRUE(session.Quit(2).ok());
  ASSERT_TRUE(session.Tick().ok());  // t=2: quit bucket (2, [0, 2])
  // t=3 (window 1): all three indices retired; new enters reuse them in
  // retirement order — bucket round, then user-id order inside the bucket —
  // before any fresh index.
  for (uint64_t u : {10u, 11u, 12u, 13u}) {
    ASSERT_TRUE(session.Enter(u, fx.CellPoint(u % 4, (u / 2) % 4)).ok());
  }
  ASSERT_TRUE(session.Tick().ok());
  const TimestampBatch& batch = batches[3];
  ASSERT_EQ(batch.observations.size(), 4u);
  EXPECT_EQ(batch.observations[0].user_index, 1u);  // quit earliest
  EXPECT_EQ(batch.observations[1].user_index, 0u);  // round-2 bucket, idx 0
  EXPECT_EQ(batch.observations[2].user_index, 2u);  // round-2 bucket, idx 2
  EXPECT_EQ(batch.observations[3].user_index, 3u);  // fresh
  EXPECT_EQ(session.index_high_water(), 4u);
}

TEST(IngestSessionTest, RecyclingOffKeepsCumulativeIndices) {
  SessionFixture fx;
  std::vector<TimestampBatch> batches;
  IngestSession session(fx.states, [&batches](TimestampBatch batch) {
    batches.push_back(std::move(batch));
    return Status::OK();
  }, fx.telemetry);
  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Quit(1).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_TRUE(session.Tick().ok());
  // Way past any window: a new enter still mints index 1.
  ASSERT_TRUE(session.Enter(2, fx.CellPoint(1, 1)).ok());
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(batches.back().observations[0].user_index, 1u);
  EXPECT_EQ(session.num_free_indices(), 0u);
  EXPECT_EQ(session.num_retiring_indices(), 0u);
}

TEST(IngestSessionTest, FailedHandlerRetryDoesNotConsumeRecycledIndices) {
  // The free list is part of the round's error-atomic state: a failing
  // handler must not burn recycled indices, and the retry must hand out the
  // identical assignment.
  SessionFixture fx;
  std::vector<TimestampBatch> batches;
  int failures_left = 2;
  IngestSession session(
      fx.states,
      [&batches, &failures_left](TimestampBatch batch) {
        if (batch.t == 2 && failures_left > 0) {
          --failures_left;
          return Status::IOError("collector offline");
        }
        batches.push_back(std::move(batch));
        return Status::OK();
      },
      fx.telemetry,
      Recycling(/*window=*/1));

  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());  // t=0: idx 0
  ASSERT_TRUE(session.Quit(1).ok());
  ASSERT_TRUE(session.Tick().ok());  // t=1: quit round 1
  // t=2: idx 0 retires this round; the enter should reuse it — across two
  // failed attempts and the final success.
  ASSERT_TRUE(session.Enter(2, fx.CellPoint(1, 1)).ok());
  EXPECT_EQ(session.Tick().code(), StatusCode::kIOError);
  EXPECT_EQ(session.num_retiring_indices(), 1u);  // nothing committed
  EXPECT_EQ(session.Tick().code(), StatusCode::kIOError);
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(batches.back().observations[0].user_index, 0u);
  EXPECT_EQ(session.index_high_water(), 1u);
  EXPECT_EQ(session.num_retiring_indices(), 0u);
}

TEST(IngestSessionTest, StreamIndexCapReturnsResourceExhausted) {
  SessionFixture fx;
  std::vector<TimestampBatch> batches;
  IngestSession session(fx.states, [&batches](TimestampBatch batch) {
    batches.push_back(std::move(batch));
    return Status::OK();
  }, fx.telemetry);
  session.set_next_stream_index_for_testing(kMaxStreamIndex - 1);

  // Two fresh enters need indices {cap-1, cap}; the second overflows, so the
  // Tick must refuse before the handler runs — the engine's dense
  // bookkeeping would abort on index 2^30.
  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Enter(2, fx.CellPoint(1, 1)).ok());
  const size_t pending = session.num_pending_events();
  Status st = session.Tick();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(st.message().find("stream-index space exhausted"),
            std::string::npos);
  // Error-atomic: round open, events intact, nothing reached the handler.
  EXPECT_EQ(session.open_round(), 0);
  EXPECT_EQ(session.num_pending_events(), pending);
  EXPECT_TRUE(batches.empty());
  // Shedding one pending enter (Quit cancels it) makes the round sealable,
  // and the last valid index is handed out.
  ASSERT_TRUE(session.Quit(2).ok());
  ASSERT_TRUE(session.Tick().ok());
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].observations.size(), 1u);
  EXPECT_EQ(batches[0].observations[0].user_index, kMaxStreamIndex - 1);
}

TEST(IngestSessionTest, StreamIndexCapReachableWithRecyclingOn) {
  // Recycling delays exhaustion but cannot prevent it: when every retired
  // index is consumed and the fresh counter sits at the cap, the next enter
  // still fails with kResourceExhausted.
  SessionFixture fx;
  std::vector<TimestampBatch> batches;
  IngestSession session(
      fx.states,
      [&batches](TimestampBatch batch) {
        batches.push_back(std::move(batch));
        return Status::OK();
      },
      fx.telemetry,
      Recycling(/*window=*/1));
  session.set_next_stream_index_for_testing(kMaxStreamIndex - 1);

  ASSERT_TRUE(session.Enter(1, fx.CellPoint(0, 0)).ok());
  ASSERT_TRUE(session.Tick().ok());  // consumes cap-1
  ASSERT_TRUE(session.Quit(1).ok());
  ASSERT_TRUE(session.Tick().ok());
  // One retired index is available again two rounds later; a single enter
  // reuses it, a second one would need a fresh index past the cap.
  ASSERT_TRUE(session.Enter(2, fx.CellPoint(1, 1)).ok());
  ASSERT_TRUE(session.Enter(3, fx.CellPoint(2, 2)).ok());
  Status st = session.Tick();
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(session.Quit(3).ok());
  ASSERT_TRUE(session.Tick().ok());
  EXPECT_EQ(batches.back().observations[0].user_index, kMaxStreamIndex - 1);
}

TEST(IngestSessionTest, ReplayedEngineReleaseIsByteIdenticalToLegacyPath) {
  // Same trajectories + same seed: legacy batch pipeline and service replay
  // must release the same synthetic database.
  HotspotGeneratorConfig data_config;
  data_config.num_timestamps = 60;
  data_config.initial_users = 300;
  data_config.mean_arrivals = 25.0;
  Rng rng(5);
  const StreamDatabase db = GenerateHotspotStreams(data_config, rng);
  const UniformGrid grid(db.box(), 4);
  const StateSpace states(grid);

  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 10;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = db.AverageLength();
  config.seed = 123;

  // Legacy path.
  const StreamFeeder feeder(db, grid, states);
  RetraSynEngine legacy(states, config);
  for (int64_t t = 0; t < feeder.num_timestamps(); ++t) {
    legacy.Observe(feeder.Batch(t));
  }
  const CellStreamSet expected =
      legacy.SnapshotRelease(feeder.num_timestamps());

  // Service path.
  auto service = TrajectoryService::Create(states, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  ASSERT_TRUE(ReplayDatabase(db, *service.value()).ok());
  auto got = service.value()->SnapshotRelease(db.num_timestamps());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ExpectEqualSets(got.value(), expected);
}

}  // namespace
}  // namespace retrasyn
