// Round-synthesis latency bench (paper SIV-B / Fig. 7): how long one
// synthesis round takes as population and grid size grow, serially and on a
// persistent thread pool, and what telemetry costs the hot path.
//
// For each (grid, population) point the bench drives a Synthesizer through
// warm-up plus measured rounds against a randomized mobility model. Between
// rounds a small random subset of states is pushed through
// GlobalMobilityModel::UpdateStates — the DMU's steady state — so the
// sampler cache pays its real incremental invalidation cost, not a
// cached-forever fantasy. Modes:
//
//   cached  — alias samplers, serial. The single-thread baseline.
//   cached_telemetry
//           — cached with a Telemetry attached to the synthesizer: measures
//             what metric recording costs the hot path. The two modes run
//             interleaved, round by round, alternating which one goes first,
//             so drift on a shared host hits both alike; the overhead is the
//             median over rounds of the per-pair ratio attached / detached,
//             minus one. --telemetry_budget (fraction, e.g. 0.03) makes the
//             bench exit nonzero when that overhead exceeds the budget at
//             any sweep point — the CI overhead gate. It needs at least
//             kMinGatePairs rounds.
//   pooled  — alias samplers + persistent ThreadPool at --threads.
//
// The sweep also carries a grid-backend dimension (--backends, default
// "uniform,quadtree"): each grid size is built through MakeSpatialGrid at a
// matched effective cell count, so the records answer whether the
// density-adaptive quadtree keeps round latency within the uniform grid's
// envelope when both discretize the domain into the same number of cells.
//
// Output: a human-readable table on stderr and a JSON array (--json, default
// BENCH_synthesis.json) with one record per (backend, grid, population,
// mode); see docs/performance.md for the schema and acceptance thresholds.
//
// Quick mode for CI smoke runs: --quick sweeps one point per backend, with
// enough rounds for the overhead gate.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "geo/spatial_grid.h"
#include "geo/state_space.h"
#include "telemetry/telemetry.h"

namespace retrasyn {
namespace {

struct ModeResult {
  std::string mode;
  int threads = 1;
  int rounds = 0;
  bool telemetry = false;
  double mean_round_ms = 0.0;
  double p50_round_ms = 0.0;
  double min_round_ms = 0.0;
  double points_per_sec = 0.0;
};

struct SweepPoint {
  std::string grid_backend;
  uint32_t grid_k = 0;
  uint32_t num_cells = 0;
  uint32_t num_states = 0;
  uint32_t population = 0;
  std::vector<ModeResult> modes;
};

/// The overhead gate's minimum number of interleaved round pairs.
constexpr int kMinGatePairs = 15;

/// Upper median of \p values (which must be non-empty).
double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::vector<double> RandomFrequencies(const StateSpace& states, Rng& rng) {
  std::vector<double> f(states.size());
  for (double& x : f) x = rng.UniformDouble() * 0.01;
  return f;
}

/// One DMU-like selective update: overwrite ~1% of the states (at least 32)
/// with fresh values, through the incremental-invalidation path.
void PerturbModel(GlobalMobilityModel& model, const StateSpace& states,
                  Rng& rng) {
  const uint32_t count =
      std::max<uint32_t>(32, states.size() / 100);
  std::vector<StateId> selected;
  selected.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    selected.push_back(static_cast<StateId>(
        rng.UniformInt(static_cast<uint64_t>(states.size()))));
  }
  std::vector<double> fresh = model.frequencies();
  for (StateId s : selected) fresh[s] = rng.UniformDouble() * 0.01;
  model.UpdateStates(selected, fresh);
}

/// One mode's synthesizer, stepped one measured round at a time so that two
/// modes can be interleaved.
class ModeRun {
 public:
  ModeRun(const std::string& mode, const StateSpace& states,
          uint32_t population, int threads, ThreadPool* pool, int warmup,
          uint64_t seed)
      : states_(states),
        population_(population),
        model_(states),
        model_rng_(seed),
        synthesizer_(states, MakeConfig(threads)),
        rng_(seed + 1) {
    model_.ReplaceAll(RandomFrequencies(states, model_rng_));
    synthesizer_.SetThreadPool(pool);
    result_.mode = mode;
    result_.threads = threads;
    result_.telemetry = mode == "cached_telemetry";
    if (result_.telemetry) synthesizer_.AttachTelemetry(&telemetry_);
    synthesizer_.Initialize(model_, population, 0, rng_);
    for (int i = 0; i < warmup; ++i) {
      PerturbModel(model_, states_, model_rng_);
      synthesizer_.Step(model_, population_, t_++, rng_);
    }
  }

  /// Runs one measured round and returns its wall time in ms.
  double Step() {
    PerturbModel(model_, states_, model_rng_);
    const uint64_t before = synthesizer_.total_points();
    Stopwatch watch;
    synthesizer_.Step(model_, population_, t_++, rng_);
    const double s = watch.ElapsedSeconds();
    total_s_ += s;
    points_ += synthesizer_.total_points() - before;
    round_ms_.push_back(s * 1e3);
    return s * 1e3;
  }

  ModeResult Result() const {
    ModeResult result = result_;
    result.rounds = static_cast<int>(round_ms_.size());
    result.mean_round_ms = total_s_ / result.rounds * 1e3;
    result.p50_round_ms = Median(round_ms_);
    result.min_round_ms =
        *std::min_element(round_ms_.begin(), round_ms_.end());
    result.points_per_sec = total_s_ > 0.0 ? points_ / total_s_ : 0.0;
    return result;
  }

 private:
  static SynthesizerConfig MakeConfig(int threads) {
    SynthesizerConfig config;
    config.lambda = 50.0;
    config.num_threads = threads;
    return config;
  }

  const StateSpace& states_;
  const uint32_t population_;
  GlobalMobilityModel model_;
  Rng model_rng_;
  // Declared before the synthesizer: attached components keep raw metric
  // pointers until they stop stepping.
  Telemetry telemetry_;
  Synthesizer synthesizer_;
  Rng rng_;
  int64_t t_ = 1;
  ModeResult result_;
  double total_s_ = 0.0;
  uint64_t points_ = 0;
  std::vector<double> round_ms_;
};

ModeResult RunMode(const std::string& mode, const StateSpace& states,
                   uint32_t population, int threads, ThreadPool* pool,
                   int warmup, int rounds, uint64_t seed) {
  ModeRun run(mode, states, population, threads, pool, warmup, seed);
  for (int i = 0; i < rounds; ++i) run.Step();
  return run.Result();
}

/// Runs `cached` and `cached_telemetry` interleaved round by round,
/// alternating which goes first, appends both results to \p modes and
/// returns the telemetry overhead: the median per-round ratio minus one.
double RunTelemetryPair(const StateSpace& states, uint32_t population,
                        int warmup, int rounds, uint64_t seed,
                        std::vector<ModeResult>* modes) {
  ModeRun detached("cached", states, population, 1, nullptr, warmup, seed);
  ModeRun attached("cached_telemetry", states, population, 1, nullptr, warmup,
                   seed);
  std::vector<double> ratios;
  ratios.reserve(static_cast<size_t>(rounds));
  for (int i = 0; i < rounds; ++i) {
    double detached_ms = 0.0;
    double attached_ms = 0.0;
    if (i % 2 == 0) {
      detached_ms = detached.Step();
      attached_ms = attached.Step();
    } else {
      attached_ms = attached.Step();
      detached_ms = detached.Step();
    }
    ratios.push_back(attached_ms / detached_ms);
  }
  modes->push_back(detached.Result());
  modes->push_back(attached.Result());
  return Median(ratios) - 1.0;
}

bool WriteJson(const std::string& path, const std::vector<SweepPoint>& sweep) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  bool first = true;
  for (const SweepPoint& point : sweep) {
    for (const ModeResult& m : point.modes) {
      if (!first) std::fprintf(f, ",\n");
      first = false;
      std::fprintf(
          f,
          "  {\"bench\": \"round_latency\", \"grid_backend\": \"%s\", "
          "\"grid_k\": %u, \"cells\": %u, "
          "\"states\": %u, \"population\": %u, \"mode\": \"%s\", "
          "\"telemetry\": %s, "
          "\"threads\": %d, \"rounds\": %d, \"mean_round_ms\": %.4f, "
          "\"p50_round_ms\": %.4f, "
          "\"min_round_ms\": %.4f, \"points_per_sec\": %.0f}",
          point.grid_backend.c_str(), point.grid_k, point.num_cells,
          point.num_states, point.population,
          m.mode.c_str(), m.telemetry ? "true" : "false",
          m.threads, m.rounds, m.mean_round_ms, m.p50_round_ms,
          m.min_round_ms, m.points_per_sec);
    }
  }
  std::fprintf(f, "\n]\n");
  std::fclose(f);
  return true;
}

std::vector<GridBackend> ParseBackends(const std::string& csv) {
  std::vector<GridBackend> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (item == "uniform") {
      out.push_back(GridBackend::kUniform);
    } else if (item == "quadtree") {
      out.push_back(GridBackend::kQuadtree);
    } else if (!item.empty()) {
      std::fprintf(stderr, "unknown grid backend '%s'\n", item.c_str());
      std::exit(1);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

std::vector<uint32_t> ParseList(const std::string& csv) {
  std::vector<uint32_t> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    const size_t comma = csv.find(',', pos);
    const std::string item =
        csv.substr(pos, comma == std::string::npos ? csv.size() - pos
                                                   : comma - pos);
    if (!item.empty()) {
      out.push_back(static_cast<uint32_t>(std::stoul(item)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int Main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const bool quick = flags.GetBool("quick", false);
  const int rounds =
      static_cast<int>(flags.GetInt("rounds", quick ? 201 : 20));
  const int warmup = static_cast<int>(flags.GetInt("warmup", quick ? 1 : 3));
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const std::string json_path =
      flags.GetString("json", "BENCH_synthesis.json");
  const std::vector<uint32_t> grid_ks =
      ParseList(flags.GetString("grids", quick ? "16" : "32,64"));
  const std::vector<uint32_t> pops = ParseList(
      flags.GetString("pops", quick ? "20000" : "10000,100000"));
  const std::vector<GridBackend> backends =
      ParseBackends(flags.GetString("backends", "uniform,quadtree"));
  // Maximum tolerated fractional overhead of cached_telemetry over cached
  // (0 = don't enforce). CI runs with --telemetry_budget=0.03.
  const double telemetry_budget = flags.GetDouble("telemetry_budget", 0.0);
  // Fewer round pairs cannot resolve a few-percent overhead.
  const int min_rounds = telemetry_budget > 0.0 ? kMinGatePairs : 1;
  if (rounds < min_rounds) {
    std::fprintf(stderr, "--rounds must be >= %d here (got %d)\n", min_rounds,
                 rounds);
    return 1;
  }

  ThreadPool pool(threads);
  double worst_overhead = 0.0;
  std::vector<SweepPoint> sweep;
  for (GridBackend backend : backends) {
    for (uint32_t k : grid_ks) {
      auto grid_or =
          MakeSpatialGrid(BoundingBox{0.0, 0.0, 1.0, 1.0}, k, backend);
      grid_or.status().CheckOK();
      const std::unique_ptr<SpatialGrid> grid = std::move(grid_or).value();
      const StateSpace states(*grid);
      for (uint32_t pop : pops) {
        SweepPoint point;
        point.grid_backend = GridBackendName(backend);
        point.grid_k = k;
        point.num_cells = grid->NumCells();
        point.num_states = states.size();
        point.population = pop;
        const double overhead = RunTelemetryPair(states, pop, warmup, rounds,
                                                 seed, &point.modes);
        point.modes.push_back(RunMode("pooled", states, pop, threads, &pool,
                                      warmup, rounds, seed));
        for (const ModeResult& m : point.modes) {
          std::fprintf(stderr,
                       "%-8s grid=%2ux%-2u cells=%5u pop=%6u %-16s threads=%d  "
                       "mean=%8.3f ms  p50=%8.3f ms  min=%8.3f ms  "
                       "%10.0f pts/s\n",
                       point.grid_backend.c_str(), k, k, point.num_cells, pop,
                       m.mode.c_str(), m.threads, m.mean_round_ms,
                       m.p50_round_ms, m.min_round_ms, m.points_per_sec);
        }
        worst_overhead = std::max(worst_overhead, overhead);
        std::fprintf(stderr,
                     "%-8s grid=%2ux%-2u pop=%6u telemetry overhead (median "
                     "of %d paired rounds): %+.2f%%\n",
                     point.grid_backend.c_str(), k, k, pop, rounds,
                     overhead * 100.0);
        sweep.push_back(std::move(point));
      }
    }
  }
  if (!WriteJson(json_path, sweep)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  if (telemetry_budget > 0.0 && worst_overhead > telemetry_budget) {
    std::fprintf(stderr,
                 "FAIL: telemetry overhead %.2f%% exceeds budget %.2f%%\n",
                 worst_overhead * 100.0, telemetry_budget * 100.0);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::Main(argc, argv); }
