// Shared scaffolding for the table/figure bench binaries.
//
// Every bench accepts:
//   --scale=<float>    dataset population multiplier relative to the bench's
//                      laptop-scale default (1.0 = default; raise toward the
//                      paper's full sizes with more time/memory)
//   --seed=<int>       dataset + engine seed base
//   --k=<int>          grid granularity (paper default 6)
//   --w=<int>          window size (paper default 20)
//   --phi=<int>        evaluation time range (paper default 10)
//   --queries=<int>    random queries per metric evaluation (paper: 100)
//   --csv=<path>       also dump the table as CSV
//   --grid_backend=<uniform|quadtree>
//                      spatial discretization backend; the quadtree is built
//                      at a matched effective cell count (see MakeSpatialGrid)
//
// Benches that drive a TrajectoryService additionally accept
//   --dump_telemetry   render the service's full telemetry snapshot
//                      (Prometheus text format) to stderr after each run,
//                      instead of per-bench one-off stat printing

#ifndef RETRASYN_BENCH_BENCH_COMMON_H_
#define RETRASYN_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "eval/datasets.h"
#include "eval/experiment.h"
#include "eval/table.h"
#include "service/trajectory_service.h"
#include "telemetry/prometheus_writer.h"

namespace retrasyn {
namespace bench {

/// Laptop-scale default population multiplier per dataset; chosen so each
/// bench binary finishes in about a minute on a laptop while preserving the
/// population ratios of the paper's Table I.
inline double DefaultScale(DatasetKind kind) {
  switch (kind) {
    case DatasetKind::kTDriveLike:
      return 0.2;   // ~46k streams, ~700 active users per timestamp
    case DatasetKind::kOldenburgLike:
      return 0.08;  // ~21k streams over 500 timestamps
    case DatasetKind::kSanJoaquinLike:
      return 0.04;  // ~40k streams over 1000 timestamps
    case DatasetKind::kRandomWalk:
      return 1.0;
  }
  return 1.0;
}

struct BenchOptions {
  double scale_mult = 1.0;
  uint64_t seed = 42;
  uint32_t grid_k = 6;
  GridBackend grid_backend = GridBackend::kUniform;
  int window = 20;
  double epsilon = 1.0;
  StreamingMetricsConfig metrics;
  std::string csv_path;

  static BenchOptions FromFlags(const Flags& flags) {
    BenchOptions options;
    options.scale_mult = flags.GetDouble("scale", 1.0);
    options.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
    options.grid_k = static_cast<uint32_t>(flags.GetInt("k", 6));
    const std::string backend = flags.GetString("grid_backend", "uniform");
    if (backend == "quadtree") {
      options.grid_backend = GridBackend::kQuadtree;
    } else if (backend != "uniform") {
      std::fprintf(stderr, "unknown --grid_backend '%s'\n", backend.c_str());
      std::abort();
    }
    options.window = static_cast<int>(flags.GetInt("w", 20));
    options.epsilon = flags.GetDouble("epsilon", 1.0);
    options.metrics.phi = flags.GetInt("phi", 10);
    options.metrics.num_queries =
        static_cast<int>(flags.GetInt("queries", 100));
    options.metrics.num_hotspot_ranges =
        static_cast<int>(flags.GetInt("hotspot_ranges", 100));
    options.metrics.num_pattern_ranges =
        static_cast<int>(flags.GetInt("pattern_ranges", 50));
    options.csv_path = flags.GetString("csv", "");
    return options;
  }
};

struct NamedDataset {
  std::string name;
  std::unique_ptr<PreparedDataset> prepared;
  double average_length = 1.0;
};

/// Generates and prepares one dataset at bench scale.
inline NamedDataset Prepare(DatasetKind kind, const BenchOptions& options) {
  DatasetSpec spec;
  switch (kind) {
    case DatasetKind::kTDriveLike:
      spec = TDriveLike(DefaultScale(kind) * options.scale_mult, options.seed);
      break;
    case DatasetKind::kOldenburgLike:
      spec = OldenburgLike(DefaultScale(kind) * options.scale_mult,
                           options.seed + 1);
      break;
    case DatasetKind::kSanJoaquinLike:
      spec = SanJoaquinLike(DefaultScale(kind) * options.scale_mult,
                            options.seed + 2);
      break;
    case DatasetKind::kRandomWalk:
      spec = RandomWalkSmall(options.scale_mult, options.seed + 3);
      break;
  }
  const StreamDatabase db = MakeDataset(spec);
  NamedDataset out;
  out.name = spec.name;
  out.average_length = db.AverageLength();
  out.prepared = std::make_unique<PreparedDataset>(db, options.grid_k,
                                                   options.grid_backend);
  std::fprintf(stderr,
               "[%s] backend=%s streams=%zu points=%llu avg_len=%.2f "
               "horizon=%lld "
               "cells=%u states=%u\n",
               spec.name.c_str(), GridBackendName(options.grid_backend),
               db.streams().size(),
               static_cast<unsigned long long>(db.TotalPoints()),
               db.AverageLength(),
               static_cast<long long>(db.num_timestamps()),
               out.prepared->grid().NumCells(),
               out.prepared->states().size());
  return out;
}

/// Runs one method over a prepared dataset with the bench options.
inline RunResult RunMethod(MethodId id, const NamedDataset& dataset,
                           const BenchOptions& options, double epsilon,
                           int window,
                           AllocationKind allocation = AllocationKind::kAdaptive,
                           uint64_t engine_seed_offset = 0) {
  auto engine = MakeEngine(id, dataset.prepared->states(), epsilon, window,
                           allocation, dataset.average_length,
                           options.seed + 100 + engine_seed_offset);
  return RunEngine(*dataset.prepared, std::move(engine), options.metrics,
                   options.seed + 1000);
}

/// Whether --dump_telemetry was passed.
inline bool DumpTelemetryRequested(const Flags& flags) {
  return flags.GetBool("dump_telemetry", false);
}

/// Renders \p service's telemetry snapshot (every counter, gauge, and
/// latency histogram across ingest/synthesis/journal/checkpoint, in
/// Prometheus text format) to stderr, tagged so multi-run benches stay
/// greppable. One shared exposition path instead of each bench hand-printing
/// the stats it happens to know about.
inline void DumpTelemetry(const std::string& tag,
                          const TrajectoryService& service) {
  std::fprintf(stderr, "--- telemetry [%s] ---\n%s--- end telemetry ---\n",
               tag.c_str(), PrometheusText(service.telemetry()).c_str());
}

inline void MaybeWriteCsv(const TablePrinter& table,
                          const BenchOptions& options) {
  if (options.csv_path.empty()) return;
  if (table.WriteCsv(options.csv_path)) {
    std::fprintf(stderr, "wrote %s\n", options.csv_path.c_str());
  } else {
    std::fprintf(stderr, "failed to write %s\n", options.csv_path.c_str());
  }
}

}  // namespace bench
}  // namespace retrasyn

#endif  // RETRASYN_BENCH_BENCH_COMMON_H_
