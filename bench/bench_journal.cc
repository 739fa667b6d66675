// Journal durability cost: append throughput per fsync policy and crash
// recovery time.
//
// Two measurement families, each swept over FsyncPolicy
// {never, every_round}:
//
//   append   — raw JournalWriter throughput on a scripted random-walk event
//              stream (users x rounds Moves + one Tick per round), isolating
//              the wire format + I/O cost from the engine: events/s, MB/s,
//              and the per-round boundary cost the ingest thread pays under
//              each policy.
//   recover  — a real journaled TrajectoryService ingests the same workload,
//              then TrajectoryService::Recover rebuilds it from disk: total
//              recovery wall time and replayed rounds/s (scan + decode +
//              full engine replay).
//
// Output: a table on stderr and a JSON array (--json, default
// BENCH_journal.json); --quick shrinks the workload for CI smoke runs.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

constexpr FsyncPolicy kPolicies[] = {FsyncPolicy::kNever,
                                     FsyncPolicy::kEveryRound};

struct AppendResult {
  FsyncPolicy fsync;
  uint64_t events = 0;
  uint64_t bytes = 0;
  double seconds = 0.0;
};

/// Raw writer throughput: no engine, just encode + append + policy fsyncs.
AppendResult RunAppend(FsyncPolicy policy, uint32_t users, int rounds,
                       uint64_t seed) {
  const std::string dir = MakeTempDir("bench-journal-", ".").ValueOrDie();
  JournalOptions options;
  options.fsync = policy;
  Telemetry telemetry;
  auto writer = JournalWriter::Open(dir, options, telemetry);
  writer.status().CheckOK();

  Rng rng(seed);
  AppendResult result;
  result.fsync = policy;
  Stopwatch watch;
  for (uint64_t u = 0; u < users; ++u) {
    writer.value()
        ->Append(JournalEvent::Enter(
            u, Point{rng.UniformDouble() * 1000.0,
                     rng.UniformDouble() * 1000.0}))
        .CheckOK();
  }
  writer.value()->Append(JournalEvent::Tick()).CheckOK();
  for (int t = 1; t < rounds; ++t) {
    for (uint64_t u = 0; u < users; ++u) {
      writer.value()
          ->Append(JournalEvent::Move(
              u, Point{rng.UniformDouble() * 1000.0,
                       rng.UniformDouble() * 1000.0}))
          .CheckOK();
    }
    writer.value()->Append(JournalEvent::Tick()).CheckOK();
  }
  writer.value()->Close().CheckOK();
  result.seconds = watch.ElapsedSeconds();
  result.events = writer.value()->records_appended();
  result.bytes = writer.value()->bytes_appended();
  RemoveDirTree(dir).CheckOK();
  return result;
}

struct RecoverResult {
  FsyncPolicy fsync;
  int rounds = 0;
  uint64_t events = 0;
  double ingest_seconds = 0.0;
  double recover_seconds = 0.0;
};

/// Journaled service ingest, then a timed Recover of the produced journal.
RecoverResult RunRecover(FsyncPolicy policy, const StateSpace& states,
                         uint32_t users, int rounds, uint64_t seed) {
  const std::string dir = MakeTempDir("bench-journal-", ".").ValueOrDie();
  const BoundingBox& box = states.grid().box();

  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 20;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = static_cast<double>(rounds) / 2.0;
  config.seed = seed;
  config.journal_dir = dir;
  config.journal_fsync = policy;

  RecoverResult result;
  result.fsync = policy;
  result.rounds = rounds;
  {
    auto service = TrajectoryService::Create(states, config);
    service.status().CheckOK();
    IngestSession& session = service.value()->session();
    Rng rng(seed);
    std::vector<Point> at(users);
    Stopwatch ingest;
    for (int t = 0; t < rounds; ++t) {
      for (uint64_t u = 0; u < users; ++u) {
        if (t == 0) {
          at[u] = Point{box.min_x + rng.UniformDouble() * box.Width(),
                        box.min_y + rng.UniformDouble() * box.Height()};
          session.Enter(u, at[u]).CheckOK();
        } else {
          at[u] = box.Clamp(
              Point{at[u].x + (rng.UniformDouble() - 0.5) * box.Width() * 0.03,
                    at[u].y +
                        (rng.UniformDouble() - 0.5) * box.Height() * 0.03});
          session.Move(u, at[u]).CheckOK();
        }
      }
      session.Tick().CheckOK();
    }
    result.ingest_seconds = ingest.ElapsedSeconds();
    result.events = service.value()->journal()->records_appended();
  }

  Stopwatch recover;
  auto recovered = TrajectoryService::Recover(states, config);
  recovered.status().CheckOK();
  result.recover_seconds = recover.ElapsedSeconds();
  if (recovered.value()->rounds_closed() != rounds) {
    std::fprintf(stderr, "recovery round mismatch\n");
    std::exit(1);
  }
  RemoveDirTree(dir).CheckOK();
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const uint32_t users =
      static_cast<uint32_t>(flags.GetInt("users", quick ? 1000 : 5000));
  const int rounds = static_cast<int>(flags.GetInt("rounds", quick ? 20 : 100));
  const uint32_t grid_k =
      static_cast<uint32_t>(flags.GetInt("grid", quick ? 8 : 16));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "BENCH_journal.json");

  const BoundingBox box{0.0, 0.0, 1000.0, 1000.0};
  const UniformGrid grid(box, grid_k);
  const StateSpace states(grid);

  std::vector<AppendResult> appends;
  std::vector<RecoverResult> recovers;
  for (FsyncPolicy policy : kPolicies) {
    appends.push_back(RunAppend(policy, users, rounds, seed));
    const AppendResult& a = appends.back();
    std::fprintf(stderr,
                 "append  fsync=%-12s users=%6u rounds=%4d  %9.0f events/s  "
                 "%7.1f MB/s  %6.3f s\n",
                 FsyncPolicyName(policy), users, rounds,
                 static_cast<double>(a.events) / a.seconds,
                 static_cast<double>(a.bytes) / a.seconds / 1e6, a.seconds);
  }
  for (FsyncPolicy policy : kPolicies) {
    recovers.push_back(RunRecover(policy, states, users, rounds, seed));
    const RecoverResult& r = recovers.back();
    std::fprintf(stderr,
                 "recover fsync=%-12s users=%6u rounds=%4d  ingest %6.2f s  "
                 "recover %6.3f s  (%7.1f rounds/s)\n",
                 FsyncPolicyName(policy), users, rounds, r.ingest_seconds,
                 r.recover_seconds,
                 static_cast<double>(r.rounds) / r.recover_seconds);
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  bool first = true;
  for (const AppendResult& a : appends) {
    std::fprintf(
        f,
        "%s  {\"bench\": \"journal\", \"mode\": \"append\", \"fsync\": "
        "\"%s\", \"users\": %u, \"rounds\": %d, \"events\": %llu, "
        "\"bytes\": %llu, \"seconds\": %.4f, \"events_per_s\": %.0f, "
        "\"mb_per_s\": %.2f}",
        first ? "" : ",\n", FsyncPolicyName(a.fsync), users, rounds,
        static_cast<unsigned long long>(a.events),
        static_cast<unsigned long long>(a.bytes), a.seconds,
        static_cast<double>(a.events) / a.seconds,
        static_cast<double>(a.bytes) / a.seconds / 1e6);
    first = false;
  }
  for (const RecoverResult& r : recovers) {
    std::fprintf(
        f,
        "%s  {\"bench\": \"journal\", \"mode\": \"recover\", \"fsync\": "
        "\"%s\", \"grid_k\": %u, \"users\": %u, \"rounds\": %d, "
        "\"events\": %llu, \"ingest_s\": %.3f, \"recover_s\": %.4f, "
        "\"rounds_per_s\": %.1f}",
        first ? "" : ",\n", FsyncPolicyName(r.fsync), grid_k, users, r.rounds,
        static_cast<unsigned long long>(r.events), r.ingest_seconds,
        r.recover_seconds,
        static_cast<double>(r.rounds) / r.recover_seconds);
    first = false;
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::Main(argc, argv); }
