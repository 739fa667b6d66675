// Checkpointed recovery cost: what a checkpoint buys over full journal
// replay at long horizons, and what compaction does to the on-disk journal.
//
// The same steady-churn workload (constant `live` population, `churn`
// streams quitting/entering per round — the schedule shared with
// bench_horizon and the recovery tests) is ingested twice:
//
//   full_replay   — journal only. Recover scans and replays every round
//                   ever ingested: O(horizon).
//   checkpointed  — journal + checkpoints every `every` rounds with history
//                   spill. Recover loads the newest checkpoint and replays
//                   only the journal suffix behind it: O(window), constant
//                   in the horizon. Journal segments end at checkpoint
//                   rounds, so compaction retires the journal prefix and
//                   the on-disk footprint is bounded too.
//
// The default horizons end half a cadence past a checkpoint round, so the
// checkpointed Recover replays a real suffix.
//
// For each mode the bench reports ingest time, the on-disk journal (and
// checkpoint) footprint at crash time, timed TrajectoryService::Recover
// wall time, the journal records Recover decoded
// (`retrasyn_recovery_events_decoded_total`), and — for the checkpointed
// mode — the replayed-suffix length and the speedup over full replay.
//
// Output: a table on stderr and a JSON array (--json, default
// BENCH_checkpoint.json); --quick shrinks the workload for CI smoke runs.
// Exits 1 when the checkpointed case retired no journal segment (the
// journal would then grow with the horizon) or when its Recover decoded
// more records than the replayed suffix holds (recovery would then read
// the journal prefix behind the checkpoint).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/flags.h"
#include "common/stopwatch.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

/// Total bytes of the regular files in \p dir (0 if the dir is missing).
uint64_t DirBytes(const std::string& dir) {
  auto names = ListDirectory(dir);
  if (!names.ok()) return 0;
  uint64_t total = 0;
  for (const std::string& name : names.value()) {
    auto size = FileSize(dir + "/" + name);
    if (size.ok()) total += static_cast<uint64_t>(size.value());
  }
  return total;
}

/// The value of the unlabelled metric \p name in \p service's telemetry
/// (0 when it is not registered).
double MetricValue(const TrajectoryService& service, const std::string& name) {
  for (const MetricSample& sample : service.telemetry().metrics) {
    if (sample.name == name && sample.labels.empty()) return sample.value;
  }
  return 0.0;
}

struct CaseResult {
  std::string mode;
  int64_t rounds = 0;
  double ingest_s = 0.0;
  double recover_s = 0.0;
  uint64_t journal_bytes = 0;     ///< on disk at crash time
  uint64_t checkpoint_bytes = 0;  ///< on disk at crash time
  uint64_t checkpoints_written = 0;
  uint64_t segments_retired = 0;
  int64_t replayed_rounds = 0;  ///< journal suffix applied by Recover
  /// Records (round boundaries included) journaled in the replayed suffix,
  /// and the records Recover decoded.
  uint64_t suffix_records = 0;
  uint64_t records_decoded = 0;
};

CaseResult RunCase(bool checkpointed, const StateSpace& states,
                   const UniformGrid& grid, int64_t rounds, int64_t live,
                   int64_t churn, int window, int64_t every, uint64_t seed) {
  const std::string journal_dir =
      MakeTempDir("bench-ckpt-journal-", ".").ValueOrDie();
  const std::string checkpoint_dir =
      MakeTempDir("bench-ckpt-state-", ".").ValueOrDie();

  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = window;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = static_cast<double>(live) / static_cast<double>(churn);
  config.seed = seed;
  config.journal_dir = journal_dir;
  config.journal_fsync = FsyncPolicy::kNever;
  if (checkpointed) {
    config.checkpoint_dir = checkpoint_dir;
    config.checkpoint_every_rounds = every;
  }

  CaseResult result;
  result.mode = checkpointed ? "checkpointed" : "full_replay";
  result.rounds = rounds;
  // Records journaled per round: its events plus the boundary.
  std::vector<uint64_t> round_records;
  {
    auto service = TrajectoryService::Create(states, config);
    service.status().CheckOK();
    IngestSession& session = service.value()->session();
    const int64_t lifetime = live / churn;
    const int64_t cells = static_cast<int64_t>(grid.NumCells());
    auto at = [&](int64_t u, int64_t t) {
      return grid.CellCenter(static_cast<CellId>((u * 7 + t) % cells));
    };
    Stopwatch ingest;
    for (int64_t t = 0; t < rounds; ++t) {
      uint64_t records = 1;
      const int64_t first = std::max<int64_t>(0, (t - lifetime) * churn);
      for (int64_t u = first; u < (t + 1) * churn; ++u) {
        const int64_t entered = u / churn;
        if (entered == t) {
          session.Enter(static_cast<uint64_t>(u), at(u, t)).CheckOK();
        } else if (t < entered + lifetime) {
          session.Move(static_cast<uint64_t>(u), at(u, t)).CheckOK();
        } else if (t == entered + lifetime) {
          session.Quit(static_cast<uint64_t>(u)).CheckOK();
        } else {
          continue;
        }
        ++records;
      }
      session.Tick().CheckOK();
      round_records.push_back(records);
    }
    service.value()->Drain().CheckOK();
    result.ingest_s = ingest.ElapsedSeconds();
    if (checkpointed) {
      result.checkpoints_written =
          service.value()->checkpoint()->checkpoints_written();
      result.segments_retired =
          service.value()->checkpoint()->segments_retired();
    }
  }

  result.journal_bytes = DirBytes(journal_dir);
  result.checkpoint_bytes = DirBytes(checkpoint_dir);

  Stopwatch recover;
  auto recovered = TrajectoryService::Recover(states, config);
  recovered.status().CheckOK();
  result.recover_s = recover.ElapsedSeconds();
  if (recovered.value()->rounds_closed() != rounds) {
    std::fprintf(stderr, "recovery round mismatch\n");
    std::exit(1);
  }
  result.replayed_rounds =
      checkpointed
          ? rounds - recovered.value()->checkpoint()->last_checkpoint_round()
          : rounds;
  for (int64_t t = rounds - result.replayed_rounds; t < rounds; ++t) {
    result.suffix_records += round_records[static_cast<size_t>(t)];
  }
  result.records_decoded = static_cast<uint64_t>(MetricValue(
      *recovered.value(), "retrasyn_recovery_events_decoded_total"));

  recovered.value().reset();
  RemoveDirTree(journal_dir).CheckOK();
  RemoveDirTree(checkpoint_dir).CheckOK();
  return result;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const int64_t rounds = flags.GetInt("rounds", quick ? 425 : 10050);
  const int64_t live = flags.GetInt("live", quick ? 200 : 500);
  const int64_t churn = flags.GetInt("churn", quick ? 10 : 25);
  const uint32_t grid_k =
      static_cast<uint32_t>(flags.GetInt("grid", quick ? 8 : 16));
  const int window = static_cast<int>(flags.GetInt("window", 20));
  const int64_t every = flags.GetInt("every", quick ? 50 : 100);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path =
      flags.GetString("json", "BENCH_checkpoint.json");
  if (live % churn != 0) {
    std::fprintf(stderr, "live (%lld) must be a multiple of churn (%lld)\n",
                 static_cast<long long>(live), static_cast<long long>(churn));
    return 1;
  }

  const BoundingBox box{0.0, 0.0, 1000.0, 1000.0};
  const UniformGrid grid(box, grid_k);
  const StateSpace states(grid);

  std::vector<CaseResult> results;
  results.push_back(RunCase(false, states, grid, rounds, live, churn, window,
                            every, seed));
  results.push_back(RunCase(true, states, grid, rounds, live, churn, window,
                            every, seed));
  const double speedup = results[0].recover_s / results[1].recover_s;

  for (const CaseResult& c : results) {
    std::fprintf(
        stderr,
        "%-12s rounds=%6lld  ingest %6.2f s  journal %7.2f MiB  "
        "ckpt %6.2f MiB  recover %7.4f s  (replayed %5lld rounds, "
        "%7.1f rounds/s, decoded %9llu records)\n",
        c.mode.c_str(), static_cast<long long>(c.rounds), c.ingest_s,
        static_cast<double>(c.journal_bytes) / (1 << 20),
        static_cast<double>(c.checkpoint_bytes) / (1 << 20), c.recover_s,
        static_cast<long long>(c.replayed_rounds),
        static_cast<double>(c.rounds) / c.recover_s,
        static_cast<unsigned long long>(c.records_decoded));
  }
  std::fprintf(stderr, "checkpointed recovery speedup: %.1fx\n", speedup);

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& c = results[i];
    std::fprintf(
        f,
        "  {\"bench\": \"checkpoint\", \"mode\": \"%s\", \"grid_k\": %u, "
        "\"rounds\": %lld, \"live\": %lld, \"churn\": %lld, \"window\": %d, "
        "\"every\": %lld, \"ingest_s\": %.3f, \"journal_mb\": %.2f, "
        "\"checkpoint_mb\": %.2f, "
        "\"checkpoints_written\": %llu, \"segments_retired\": %llu, "
        "\"recover_s\": %.4f, \"replayed_rounds\": %lld, "
        "\"suffix_events\": %llu, \"events_decoded\": %llu, "
        "\"recovered_rounds_per_s\": %.1f%s}%s\n",
        c.mode.c_str(), grid_k, static_cast<long long>(c.rounds),
        static_cast<long long>(live), static_cast<long long>(churn), window,
        static_cast<long long>(every), c.ingest_s,
        static_cast<double>(c.journal_bytes) / (1 << 20),
        static_cast<double>(c.checkpoint_bytes) / (1 << 20),
        static_cast<unsigned long long>(c.checkpoints_written),
        static_cast<unsigned long long>(c.segments_retired), c.recover_s,
        static_cast<long long>(c.replayed_rounds),
        static_cast<unsigned long long>(c.suffix_records),
        static_cast<unsigned long long>(c.records_decoded),
        static_cast<double>(c.rounds) / c.recover_s,
        c.mode == "checkpointed"
            ? (", \"speedup_vs_full_replay\": " + std::to_string(speedup))
                  .c_str()
            : "",
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  if (results[1].segments_retired == 0) {
    std::fprintf(stderr,
                 "checkpointed case retired no journal segment: the journal "
                 "is unbounded\n");
    return 1;
  }
  if (results[1].records_decoded > results[1].suffix_records) {
    std::fprintf(stderr,
                 "checkpointed recovery decoded %llu journal records, more "
                 "than the %llu its replayed suffix holds\n",
                 static_cast<unsigned long long>(results[1].records_decoded),
                 static_cast<unsigned long long>(results[1].suffix_records));
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::Main(argc, argv); }
