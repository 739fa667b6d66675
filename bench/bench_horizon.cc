// Long-horizon resource profile: what stream-index recycling buys a service
// that runs for months instead of a one-shot experiment.
//
// A steady-churn workload (constant live population, `churn` streams
// quitting and entering per round) is driven for `rounds` rounds through a
// Create-built service, which recycles stream indices. The bench reports
// per-round Tick() cost early in the run (rounds [100, 200)) vs at the end
// of the horizon, the session's index high-water mark, the engine's dense
// per-user slot count, and the process RSS before/mid/after the run. The
// index space and dense vectors stay at the steady-state pool
// (live + churn * (window + 2)) instead of growing with every stream ever
// started.
//
// A second mode, recycle_on_spill, additionally journals the workload and
// checkpoints every `every` rounds with history spill: closed streams move
// to checkpoint-owned spill files instead of accumulating in the engine,
// so steady-state RSS is flat in the horizon (rss_mid == rss_end) where
// plain recycle_on still grows linearly with the closed-stream history.
//
// Each (backend, mode) run happens in a forked child process, so its RSS
// readings start from the bare process and never include heap the runs
// before it grew.
//
// The whole profile is repeated per grid backend (--backends, default
// "uniform,quadtree", via MakeSpatialGrid at matched cell count): long-horizon
// resource behavior must be a property of the service, not of the uniform
// discretization it happened to be measured on.
//
// Output: a table on stderr and a JSON array (--json, default
// BENCH_horizon.json), one row per run with a host block (cores, compiler,
// build type, and the --commit flag); --quick shrinks the workload for CI
// smoke runs.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/file_io.h"
#include "common/flags.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "core/engine.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "geo/spatial_grid.h"
#include "geo/state_space.h"
#include "service/trajectory_service.h"

namespace retrasyn {
namespace {

/// VmRSS of this process in MiB (0 when /proc is unavailable).
double RssMb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmRSS:", 6) == 0) {
      std::sscanf(line + 6, "%ld", &kb);
      break;
    }
  }
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// The numbers of one run: plain data, so a child process can hand them to
/// the parent through a pipe.
struct ModeNumbers {
  double tick_early_ms = 0.0;  ///< mean over rounds [100, 200)
  double tick_late_ms = 0.0;   ///< mean over the final 100 rounds
  double tick_p99_ms = 0.0;
  uint32_t index_high_water = 0;
  size_t dense_user_slots = 0;
  size_t free_indices = 0;
  uint64_t total_retired = 0;
  uint64_t streams_spilled = 0;
  double rss_start_mb = 0.0;
  double rss_mid_mb = 0.0;  ///< sampled at rounds / 2
  double rss_end_mb = 0.0;
  double total_s = 0.0;
};

struct ModeResult : ModeNumbers {
  std::string grid_backend;
  std::string mode;
};

double MeanRange(const std::vector<double>& v, size_t lo, size_t hi) {
  lo = std::min(lo, v.size());
  hi = std::min(hi, v.size());
  if (hi <= lo) return 0.0;
  double sum = 0.0;
  for (size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

ModeNumbers RunMode(bool spill, const StateSpace& states,
                    const SpatialGrid& grid, int64_t rounds, int64_t live,
                    int64_t churn, int window, int64_t every, uint64_t seed) {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = window;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = static_cast<double>(live) / static_cast<double>(churn);
  config.seed = seed;
  std::string journal_dir, checkpoint_dir;
  if (spill) {
    journal_dir = MakeTempDir("bench-horizon-journal-", ".").ValueOrDie();
    checkpoint_dir = MakeTempDir("bench-horizon-ckpt-", ".").ValueOrDie();
    config.journal_dir = journal_dir;
    config.journal_fsync = FsyncPolicy::kNever;
    config.journal_segment_bytes = 1 << 20;  // rotate → compactable prefix
    config.checkpoint_dir = checkpoint_dir;
    config.checkpoint_every_rounds = every;
  }

  ModeNumbers result;
  result.rss_start_mb = RssMb();

  auto service = TrajectoryService::Create(states, config);
  service.status().CheckOK();
  IngestSession& session = service.value()->session();

  // Same steady-churn schedule as DriveChurnRound(s) in the horizon-soak
  // and recovery tests — keep the three in sync so the committed numbers
  // and the CI bounds describe the same workload.
  const int64_t lifetime = live / churn;
  const int64_t cells = static_cast<int64_t>(grid.NumCells());
  auto at = [&](int64_t u, int64_t t) {
    return grid.CellCenter(static_cast<CellId>((u * 7 + t) % cells));
  };

  std::vector<double> tick_ms;
  tick_ms.reserve(static_cast<size_t>(rounds));
  Stopwatch total;
  for (int64_t t = 0; t < rounds; ++t) {
    const int64_t first = std::max<int64_t>(0, (t - lifetime) * churn);
    for (int64_t u = first; u < (t + 1) * churn; ++u) {
      const int64_t entered = u / churn;
      if (entered == t) {
        session.Enter(static_cast<uint64_t>(u), at(u, t)).CheckOK();
      } else if (t < entered + lifetime) {
        session.Move(static_cast<uint64_t>(u), at(u, t)).CheckOK();
      } else if (t == entered + lifetime) {
        session.Quit(static_cast<uint64_t>(u)).CheckOK();
      }
    }
    Stopwatch watch;
    session.Tick().CheckOK();
    tick_ms.push_back(watch.ElapsedSeconds() * 1e3);
    if (t == rounds / 2) result.rss_mid_mb = RssMb();
  }
  if (spill) service.value()->Drain().CheckOK();
  result.total_s = total.ElapsedSeconds();
  result.rss_end_mb = RssMb();

  result.tick_early_ms = MeanRange(tick_ms, 100, 200);
  result.tick_late_ms =
      MeanRange(tick_ms, tick_ms.size() - std::min<size_t>(100, tick_ms.size()),
                tick_ms.size());
  std::vector<double> sorted = tick_ms;
  std::sort(sorted.begin(), sorted.end());
  result.tick_p99_ms =
      sorted[std::min(sorted.size() - 1,
                      static_cast<size_t>(0.99 * (sorted.size() - 1) + 0.5))];
  result.index_high_water = session.index_high_water();
  result.free_indices = session.num_free_indices();
  const RetraSynEngine* engine = service.value()->retrasyn_engine();
  result.dense_user_slots = engine->dense_user_slots();
  result.total_retired = engine->total_retired();
  if (spill) {
    result.streams_spilled = service.value()->checkpoint()->streams_spilled();
    service.value().reset();
    RemoveDirTree(journal_dir).CheckOK();
    RemoveDirTree(checkpoint_dir).CheckOK();
  }
  return result;
}

/// RunMode in a forked child; the parent only collects the numbers.
ModeResult RunModeInChild(bool spill, const StateSpace& states,
                          const SpatialGrid& grid, int64_t rounds,
                          int64_t live, int64_t churn, int window,
                          int64_t every, uint64_t seed) {
  int fds[2];
  RETRASYN_CHECK(pipe(fds) == 0);
  std::fflush(nullptr);
  const pid_t pid = fork();
  RETRASYN_CHECK(pid >= 0);
  if (pid == 0) {
    close(fds[0]);
    const ModeNumbers numbers = RunMode(spill, states, grid, rounds, live,
                                        churn, window, every, seed);
    const bool sent = write(fds[1], &numbers, sizeof(numbers)) ==
                      static_cast<ssize_t>(sizeof(numbers));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  ModeResult result;
  ModeNumbers& numbers = result;
  const ssize_t got = read(fds[0], &numbers, sizeof(numbers));
  close(fds[0]);
  int status = 0;
  RETRASYN_CHECK(waitpid(pid, &status, 0) == pid);
  RETRASYN_CHECK(WIFEXITED(status) && WEXITSTATUS(status) == 0 &&
                 got == static_cast<ssize_t>(sizeof(numbers)));
  result.grid_backend = GridBackendName(grid.backend());
  result.mode = spill ? "recycle_on_spill" : "recycle_on";
  return result;
}

bool WriteJson(const std::string& path, const std::string& commit,
               uint32_t grid_k, int64_t rounds, int64_t live, int64_t churn,
               int window, const std::vector<ModeResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& m = results[i];
    std::fprintf(
        f,
        "  {\"bench\": \"horizon\", \"host\": {\"nproc\": %u, "
        "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\"}, "
        "\"grid_backend\": \"%s\", "
        "\"grid_k\": %u, \"rounds\": %lld, "
        "\"live\": %lld, \"churn\": %lld, \"window\": %d, \"mode\": \"%s\", "
        "\"tick_early_ms\": %.4f, \"tick_late_ms\": %.4f, "
        "\"tick_p99_ms\": %.4f, \"index_high_water\": %u, "
        "\"dense_user_slots\": %zu, \"free_indices\": %zu, "
        "\"total_retired\": %llu, \"streams_spilled\": %llu, "
        "\"rss_start_mb\": %.1f, \"rss_mid_mb\": %.1f, "
        "\"rss_end_mb\": %.1f, \"total_s\": %.3f}%s\n",
        std::thread::hardware_concurrency(), RETRASYN_BENCH_COMPILER,
        RETRASYN_BENCH_BUILD_TYPE, commit.c_str(), m.grid_backend.c_str(),
        grid_k, static_cast<long long>(rounds), static_cast<long long>(live),
        static_cast<long long>(churn), window, m.mode.c_str(),
        m.tick_early_ms, m.tick_late_ms, m.tick_p99_ms, m.index_high_water,
        m.dense_user_slots, m.free_indices,
        static_cast<unsigned long long>(m.total_retired),
        static_cast<unsigned long long>(m.streams_spilled), m.rss_start_mb,
        m.rss_mid_mb, m.rss_end_mb, m.total_s,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const int64_t rounds = flags.GetInt("rounds", quick ? 1500 : 10000);
  const int64_t live = flags.GetInt("live", quick ? 500 : 2000);
  const int64_t churn = flags.GetInt("churn", quick ? 25 : 100);
  const uint32_t grid_k =
      static_cast<uint32_t>(flags.GetInt("grid", quick ? 8 : 16));
  const int window = static_cast<int>(flags.GetInt("window", 20));
  const int64_t every = flags.GetInt("every", 50);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "BENCH_horizon.json");
  const std::string commit = flags.GetString("commit", "unknown");
  if (live % churn != 0) {
    std::fprintf(stderr, "live (%lld) must be a multiple of churn (%lld)\n",
                 static_cast<long long>(live), static_cast<long long>(churn));
    return 1;
  }

  const std::string backends_csv = flags.GetString("backends", "uniform,quadtree");
  std::vector<GridBackend> backends;
  {
    size_t pos = 0;
    while (pos < backends_csv.size()) {
      const size_t comma = backends_csv.find(',', pos);
      const std::string item = backends_csv.substr(
          pos, comma == std::string::npos ? backends_csv.size() - pos
                                          : comma - pos);
      if (item == "uniform") {
        backends.push_back(GridBackend::kUniform);
      } else if (item == "quadtree") {
        backends.push_back(GridBackend::kQuadtree);
      } else if (!item.empty()) {
        std::fprintf(stderr, "unknown grid backend '%s'\n", item.c_str());
        return 1;
      }
      if (comma == std::string::npos) break;
      pos = comma + 1;
    }
  }

  const BoundingBox box{0.0, 0.0, 1000.0, 1000.0};
  std::vector<ModeResult> results;
  for (GridBackend backend : backends) {
    auto grid_or = MakeSpatialGrid(box, grid_k, backend);
    grid_or.status().CheckOK();
    const std::unique_ptr<SpatialGrid> grid = std::move(grid_or).value();
    const StateSpace states(*grid);
    for (bool spill : {true, false}) {
      results.push_back(RunModeInChild(spill, states, *grid, rounds, live,
                                       churn, window, every, seed));
    }
  }
  for (const ModeResult& m : results) {
    std::fprintf(
        stderr,
        "%-8s grid=%2ux%-2u rounds=%6lld live=%5lld churn=%4lld %-16s  "
        "tick@100=%7.3f ms  tick@end=%7.3f ms  p99=%7.3f ms  "
        "high_water=%8u  dense_slots=%9zu  rss=%6.1f->%6.1f->%6.1f MiB  "
        "total=%6.2f s\n",
        m.grid_backend.c_str(), grid_k, grid_k, static_cast<long long>(rounds),
        static_cast<long long>(live), static_cast<long long>(churn),
        m.mode.c_str(), m.tick_early_ms, m.tick_late_ms, m.tick_p99_ms,
        m.index_high_water, m.dense_user_slots, m.rss_start_mb, m.rss_mid_mb,
        m.rss_end_mb, m.total_s);
  }
  if (!WriteJson(json_path, commit, grid_k, rounds, live, churn, window,
                 results)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::Main(argc, argv); }
