// Ingest-thread Tick() latency: what the round-closing SyncPolicy buys the
// caller that must keep accepting reports in real time.
//
// Inline mode runs collection + model update + synthesis + sink delivery on
// the ingest thread, so Tick() pays the full synthesis cost. Async mode
// seals + enqueues and a background closer does the heavy step, so Tick()
// latency is decoupled from synthesis cost — until the bounded round queue
// fills and the configured backpressure policy kicks in (this bench uses
// kBlock, so saturation shows up honestly in the tail percentiles rather
// than as dropped rounds).
//
// The same scripted random-walk event sequence drives both modes through a
// real RetraSynEngine. Output: a table on stderr and a JSON array (--json,
// default BENCH_ingest.json) with p50/p99/max Tick() latency per mode and
// one row per sharded-sweep point, each with a host block (nproc, compiler,
// build type, and the --commit flag); see docs/performance.md for the
// schema.
//
// Quick mode for CI smoke runs: --quick shrinks the workload.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/file_io.h"
#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/release_server.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "service/trajectory_service.h"

/// Global allocation counter, so the sharded sweep can pin the seal-buffer
/// reuse claim ("steady state allocates nothing proportional to the
/// population") with a measured allocs-per-round number instead of prose.
std::atomic<uint64_t> g_allocations{0};
std::atomic<uint64_t> g_allocated_bytes{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace retrasyn {
namespace {

struct RoundScript {
  std::vector<std::pair<uint64_t, Point>> reports;  ///< user -> location
};

struct ModeResult {
  std::string mode;
  int queue_capacity = 0;  ///< 0 = inline (no queue)
  bool journaled = false;  ///< durable event journal at kEveryRound
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  double mean_ms = 0.0;
  double total_s = 0.0;    ///< wall clock for the whole ingest loop
  double drain_ms = 0.0;   ///< Drain() barrier at the end (async only)
};

/// Scripts \p rounds rounds of a fixed-population random walk, identical for
/// every mode: everyone enters at t=0 and reports a nearby point each round.
std::vector<RoundScript> ScriptWorkload(const BoundingBox& box, uint32_t users,
                                        int rounds, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> at(users);
  for (Point& p : at) {
    p = Point{box.min_x + rng.UniformDouble() * box.Width(),
              box.min_y + rng.UniformDouble() * box.Height()};
  }
  std::vector<RoundScript> script(rounds);
  const double step_x = box.Width() * 0.03;
  const double step_y = box.Height() * 0.03;
  for (int t = 0; t < rounds; ++t) {
    script[t].reports.reserve(users);
    for (uint64_t u = 0; u < users; ++u) {
      if (t > 0) {
        at[u] = box.Clamp(Point{at[u].x + (rng.UniformDouble() - 0.5) * step_x,
                                at[u].y + (rng.UniformDouble() - 0.5) * step_y});
      }
      script[t].reports.emplace_back(u, at[u]);
    }
  }
  return script;
}

double Percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const size_t i = std::min(
      sorted.size() - 1, static_cast<size_t>(q * (sorted.size() - 1) + 0.5));
  return sorted[i];
}

ModeResult RunMode(const std::string& mode, const StateSpace& states,
                   const UniformGrid& grid,
                   const std::vector<RoundScript>& script,
                   const RetraSynConfig& base_config, int queue_capacity,
                   bool journaled = false, bool dump_telemetry = false) {
  RetraSynConfig config = base_config;
  config.sync_policy =
      mode.rfind("inline", 0) == 0 ? SyncPolicy::kInline : SyncPolicy::kAsync;
  config.round_queue_capacity = queue_capacity;
  config.backpressure = BackpressurePolicy::kBlock;
  if (journaled) {
    config.journal_dir = MakeTempDir("bench-ingest-", ".").ValueOrDie();
    config.journal_fsync = FsyncPolicy::kEveryRound;
  }
  auto service = TrajectoryService::Create(states, config);
  service.status().CheckOK();
  ReleaseServer server(grid);
  service.value()->AddSink(&server);
  IngestSession& session = service.value()->session();

  ModeResult result;
  result.mode = mode;
  result.journaled = journaled;
  result.queue_capacity =
      config.sync_policy == SyncPolicy::kInline ? 0 : queue_capacity;
  std::vector<double> tick_ms;
  tick_ms.reserve(script.size());
  Stopwatch total;
  for (size_t t = 0; t < script.size(); ++t) {
    for (const auto& [user, point] : script[t].reports) {
      (t == 0 ? session.Enter(user, point) : session.Move(user, point))
          .CheckOK();
    }
    Stopwatch watch;
    session.Tick().CheckOK();
    tick_ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  Stopwatch drain;
  service.value()->Drain().CheckOK();
  result.drain_ms = drain.ElapsedSeconds() * 1e3;
  result.total_s = total.ElapsedSeconds();
  if (dump_telemetry) bench::DumpTelemetry(mode, *service.value());
  if (journaled) RemoveDirTree(config.journal_dir).CheckOK();

  double sum = 0.0;
  for (double ms : tick_ms) sum += ms;
  result.mean_ms = sum / tick_ms.size();
  std::sort(tick_ms.begin(), tick_ms.end());
  result.p50_ms = Percentile(tick_ms, 0.5);
  result.p99_ms = Percentile(tick_ms, 0.99);
  result.max_ms = tick_ms.back();
  return result;
}

/// A row of the sharded ingest throughput sweep.
struct ShardResult {
  int shards = 0;
  uint32_t users = 0;
  int rounds = 0;
  double events_per_s = 0.0;
  double tick_mean_ms = 0.0;   ///< seal + merge + commit, per round
  double seal_s = 0.0;         ///< cumulative parallel per-shard seal
  double merge_s = 0.0;        ///< cumulative k-way merge
  double commit_s = 0.0;       ///< cumulative post-handler commit
  double allocs_per_round = 0.0;  ///< steady-state (first round excluded)
  double alloc_bytes_per_round = 0.0;  ///< ditto, bytes requested
};

/// Observe/LiveDensity no-ops: the sweep measures the ingest path (shard
/// locking, seal, merge, commit), not synthesis — that is bench_round_latency.
class NullEngine : public StreamReleaseEngine {
 public:
  void Observe(const TimestampBatch&) override {}
  CellStreamSet SnapshotRelease(int64_t n) const override {
    return CellStreamSet(n);
  }
  std::vector<uint32_t> LiveDensity() const override { return {}; }
  std::string name() const override { return "bench-null"; }
};

/// The session's user -> shard hash (splitmix64 finalizer), replicated so
/// each producer thread feeds exactly one shard — the intended deployment
/// shape (shard-affine producers never contend on a shard mutex).
uint64_t ShardOf(uint64_t user, int shards) {
  uint64_t x = user + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x % static_cast<uint64_t>(shards);
}

/// The total seconds recorded by the histogram \p name in \p telemetry.
double HistogramSum(const TelemetrySnapshot& telemetry,
                    const std::string& name) {
  for (const MetricSample& sample : telemetry.metrics) {
    if (sample.name == name) return sample.histogram.sum_seconds;
  }
  return 0.0;
}

ShardResult RunShardSweep(const StateSpace& states, const BoundingBox& box,
                          int shards, uint32_t users, int rounds,
                          bool dump_telemetry = false) {
  ServiceOptions options;
  options.ingest_shards = shards;
  options.enable_telemetry = true;  // the Tick phase sums come from it
  auto service = TrajectoryService::CreateWithEngine(
      states, std::make_unique<NullEngine>(), options);
  service.status().CheckOK();
  IngestSession& session = service.value()->session();

  // Shard-affine user lists, fixed report points (the ingest cost is in
  // validation + locking + seal, not in where the point lands).
  std::vector<std::vector<uint64_t>> by_shard(static_cast<size_t>(shards));
  for (uint64_t u = 0; u < users; ++u) {
    by_shard[ShardOf(u, shards)].push_back(u);
  }
  auto point_of = [&](uint64_t u) {
    return Point{box.min_x + (static_cast<double>(u % 997) / 997.0) * box.Width(),
                 box.min_y +
                     (static_cast<double>(u % 991) / 991.0) * box.Height()};
  };

  ShardResult result;
  result.shards = shards;
  result.users = users;
  result.rounds = rounds;
  uint64_t steady_allocs = 0;
  uint64_t steady_bytes = 0;
  Stopwatch total;
  for (int t = 0; t < rounds; ++t) {
    std::vector<std::thread> producers;
    producers.reserve(by_shard.size());
    for (const std::vector<uint64_t>& mine : by_shard) {
      producers.emplace_back([&session, &mine, &point_of, t] {
        for (uint64_t u : mine) {
          (t == 0 ? session.Enter(u, point_of(u))
                  : session.Move(u, point_of(u + static_cast<uint64_t>(t))))
              .CheckOK();
        }
      });
    }
    for (auto& thread : producers) thread.join();
    // The allocation count covers the seal + merge + commit inside Tick(),
    // not the producers' pending-event buffering.
    // Rounds 0 and 1 are warmup: round 0 runs with every buffer cold, and
    // round 1 is the first with live streams, so the entry and observation
    // buffers grow once to their steady capacity there. The claim is steady
    // state, which starts at round 2.
    const uint64_t allocs_before = g_allocations.load();
    const uint64_t bytes_before = g_allocated_bytes.load();
    session.Tick().CheckOK();
    if (t > 1) {
      steady_allocs += g_allocations.load() - allocs_before;
      steady_bytes += g_allocated_bytes.load() - bytes_before;
    }
  }
  const double elapsed = total.ElapsedSeconds();
  service.value()->Drain().CheckOK();
  if (dump_telemetry) {
    bench::DumpTelemetry("sharded/" + std::to_string(shards) + "x" +
                             std::to_string(users),
                         *service.value());
  }

  const TelemetrySnapshot telemetry = service.value()->telemetry();
  result.seal_s = HistogramSum(telemetry, "retrasyn_ingest_seal_seconds");
  result.merge_s = HistogramSum(telemetry, "retrasyn_ingest_merge_seconds");
  result.commit_s = HistogramSum(telemetry, "retrasyn_ingest_commit_seconds");
  result.events_per_s =
      static_cast<double>(users) * static_cast<double>(rounds) / elapsed;
  result.tick_mean_ms = (result.seal_s + result.merge_s + result.commit_s) /
                        static_cast<double>(rounds) * 1e3;
  result.allocs_per_round =
      rounds > 2 ? static_cast<double>(steady_allocs) / (rounds - 2) : 0.0;
  result.alloc_bytes_per_round =
      rounds > 2 ? static_cast<double>(steady_bytes) / (rounds - 2) : 0.0;
  return result;
}

bool WriteJson(const std::string& path, const std::string& commit,
               uint32_t grid_k, uint32_t users, int rounds, int threads,
               const std::vector<ModeResult>& results,
               const std::vector<ShardResult>& shard_results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  char host[256];
  std::snprintf(host, sizeof(host),
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
                "\"commit\": \"%s\"}",
                std::thread::hardware_concurrency(), RETRASYN_BENCH_COMPILER,
                RETRASYN_BENCH_BUILD_TYPE, commit.c_str());
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModeResult& m = results[i];
    std::fprintf(
        f,
        "  {\"bench\": \"ingest_latency\", \"host\": %s, \"grid_k\": %u, "
        "\"users\": %u, \"rounds\": %d, \"queue_capacity\": %d, "
        "\"threads\": %d, \"mode\": \"%s\", \"journal\": \"%s\", "
        "\"tick_p50_ms\": %.4f, \"tick_p99_ms\": %.4f, \"tick_max_ms\": %.4f, "
        "\"tick_mean_ms\": %.4f, \"drain_ms\": %.2f, \"total_s\": %.3f}%s\n",
        host, grid_k, users, rounds, m.queue_capacity, threads, m.mode.c_str(),
        m.journaled ? "every_round" : "off", m.p50_ms, m.p99_ms, m.max_ms,
        m.mean_ms, m.drain_ms, m.total_s,
        i + 1 < results.size() || !shard_results.empty() ? "," : "");
  }
  for (size_t i = 0; i < shard_results.size(); ++i) {
    const ShardResult& r = shard_results[i];
    std::fprintf(
        f,
        "  {\"bench\": \"ingest_sharded\", \"host\": %s, \"shards\": %d, "
        "\"users\": %u, \"rounds\": %d, "
        "\"events_per_s\": %.0f, \"tick_mean_ms\": %.3f, "
        "\"seal_s\": %.4f, \"merge_s\": %.4f, \"commit_s\": %.4f, "
        "\"allocs_per_round\": %.1f, \"alloc_bytes_per_round\": %.0f}%s\n",
        host, r.shards, r.users, r.rounds, r.events_per_s, r.tick_mean_ms,
        r.seal_s, r.merge_s, r.commit_s, r.allocs_per_round,
        r.alloc_bytes_per_round, i + 1 < shard_results.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  return true;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  // Defaults chosen so the round-closing step (model update + synthesis on a
  // 64x64 grid) clearly outweighs the seal cost (sorting 5k events): the
  // regime the async policy exists for.
  const uint32_t grid_k =
      static_cast<uint32_t>(flags.GetInt("grid", quick ? 16 : 64));
  const uint32_t users =
      static_cast<uint32_t>(flags.GetInt("users", quick ? 2000 : 5000));
  const int rounds = static_cast<int>(flags.GetInt("rounds", quick ? 30 : 80));
  const int queue_capacity =
      static_cast<int>(flags.GetInt("queue_capacity", 8));
  const int threads = static_cast<int>(flags.GetInt("threads", 1));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path = flags.GetString("json", "BENCH_ingest.json");
  const std::string commit = flags.GetString("commit", "unknown");
  const bool dump_telemetry = bench::DumpTelemetryRequested(flags);

  const BoundingBox box{0.0, 0.0, 1000.0, 1000.0};
  const UniformGrid grid(box, grid_k);
  const StateSpace states(grid);
  const std::vector<RoundScript> script =
      ScriptWorkload(box, users, rounds, seed);

  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 20;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = static_cast<double>(rounds) / 2.0;
  config.seed = seed;
  config.num_threads = threads;

  // Four rows: inline (Tick pays synthesis), inline with the durable journal
  // at kEveryRound (the acceptance bar: < 10% added p50 — one boundary
  // record + fsync per round), async at the steady-state queue depth
  // (backpressure shows in the tail when the closer cannot keep up with the
  // ingest rate), and async with a queue deep enough to absorb the whole run
  // (pure seal + enqueue cost — the decoupled floor).
  std::vector<ModeResult> results;
  results.push_back(RunMode("inline", states, grid, script, config,
                            queue_capacity, /*journaled=*/false,
                            dump_telemetry));
  results.push_back(RunMode("inline_journal", states, grid, script, config,
                            queue_capacity, /*journaled=*/true,
                            dump_telemetry));
  results.push_back(RunMode("async", states, grid, script, config,
                            queue_capacity, /*journaled=*/false,
                            dump_telemetry));
  results.push_back(RunMode("async_deep", states, grid, script, config,
                            rounds + 1, /*journaled=*/false, dump_telemetry));
  for (const ModeResult& m : results) {
    std::fprintf(stderr,
                 "grid=%2ux%-2u users=%6u rounds=%3d %-14s cap=%3d  "
                 "tick p50=%7.3f ms  p99=%7.3f ms  max=%7.3f ms  "
                 "drain=%7.1f ms  total=%6.2f s\n",
                 grid_k, grid_k, users, rounds, m.mode.c_str(),
                 m.queue_capacity, m.p50_ms, m.p99_ms, m.max_ms, m.drain_ms,
                 m.total_s);
  }

  // Sharded ingest throughput sweep: shard count x live population, against
  // a no-op engine so the measurement isolates the ingest path. Expect
  // near-linear scaling in min(shards, cores) — the host block's "nproc"
  // records what the host could actually exercise. allocs_per_round pins the
  // seal-buffer reuse: steady-state allocations per round stay O(1).
  std::vector<ShardResult> shard_results;
  if (!flags.GetBool("no_sweep", false)) {
    const std::vector<uint32_t> populations =
        quick ? std::vector<uint32_t>{20'000}
              : std::vector<uint32_t>{65'536, 262'144, 1'048'576};
    const std::vector<int> shard_counts =
        quick ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
    const int sweep_rounds = static_cast<int>(
        flags.GetInt("sweep_rounds", quick ? 4 : 6));
    for (uint32_t population : populations) {
      for (int shards : shard_counts) {
        shard_results.push_back(RunShardSweep(states, box, shards, population,
                                              sweep_rounds, dump_telemetry));
      }
    }
    for (const ShardResult& r : shard_results) {
      std::fprintf(stderr,
                   "shards=%d users=%7u rounds=%d  "
                   "%10.0f events/s  tick mean=%7.3f ms  "
                   "(seal %.3fs merge %.3fs commit %.3fs)  "
                   "allocs/round=%.1f (%.0f KiB)\n",
                   r.shards, r.users, r.rounds, r.events_per_s,
                   r.tick_mean_ms, r.seal_s, r.merge_s, r.commit_s,
                   r.allocs_per_round, r.alloc_bytes_per_round / 1024.0);
    }
  }

  if (!WriteJson(json_path, commit, grid_k, users, rounds, threads, results,
                 shard_results)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  return 0;
}

}  // namespace
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::Main(argc, argv); }
