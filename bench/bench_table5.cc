// Table V reproduction: component efficiency of RetraSyn_p — mean
// per-timestamp wall-clock seconds spent in (i) user-side computation
// (perturbation), (ii) mobility model construction (aggregation/estimation),
// (iii) the DMU mechanism, and (iv) real-time synthesis, per dataset.
//
// Expected shape (paper SV-E Table V): synthesis dominates (O(|T_syn|) work),
// everything else is sub-millisecond; totals stay far below the inter-
// timestamp interval, so real-time operation is comfortable.
//
// Pass --per_user=true to time the real per-user OUE protocol instead of the
// distribution-exact aggregate simulation (slower; closer to the paper's
// user-side numbers).
//
// The times are the engine's own telemetry: each component is a
// retrasyn_engine_*_seconds histogram (SumSeconds / Count), the same series
// a deployed service exports. The bench exits 1 when a histogram did not
// count every observed round, so the table cannot come from anywhere else.

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace retrasyn {
namespace bench {
namespace {

/// The engine histograms behind the four Table V rows, in row order.
constexpr const char* kComponentHistograms[] = {
    "retrasyn_engine_user_side_seconds",
    "retrasyn_engine_model_construction_seconds",
    "retrasyn_engine_dmu_seconds",
    "retrasyn_engine_synthesis_seconds",
};

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchOptions options = BenchOptions::FromFlags(flags);
  const bool per_user = flags.GetBool("per_user", false);

  std::printf(
      "=== Table V: component efficiency of RetraSyn_p (eps=%.1f, w=%d, "
      "K=%u, %s collection) ===\n",
      options.epsilon, options.window, options.grid_k,
      per_user ? "per-user" : "aggregate-simulated");

  TablePrinter table({"procedure", "T-Drive-like", "Oldenburg-like",
                      "SanJoaquin-like"});
  std::vector<std::vector<double>> columns;  // [dataset][component]

  for (DatasetKind kind : {DatasetKind::kTDriveLike,
                           DatasetKind::kOldenburgLike,
                           DatasetKind::kSanJoaquinLike}) {
    const NamedDataset dataset = Prepare(kind, options);
    RetraSynConfig config;
    config.epsilon = options.epsilon;
    config.window = options.window;
    config.division = DivisionStrategy::kPopulation;
    config.allocation.kind = AllocationKind::kAdaptive;
    config.lambda = dataset.average_length;
    config.collection_mode =
        per_user ? CollectionMode::kPerUser : CollectionMode::kAggregateSim;
    config.seed = options.seed + 7;
    RetraSynEngine engine(dataset.prepared->states(), config);
    Telemetry telemetry;
    engine.AttachTelemetry(&telemetry);
    const int64_t rounds = dataset.prepared->horizon();
    for (int64_t t = 0; t < rounds; ++t) {
      engine.Observe(dataset.prepared->feeder().Batch(t));
    }
    std::vector<double> column;
    double total = 0.0;
    for (const char* name : kComponentHistograms) {
      const LatencyHistogram* hist =
          telemetry.registry().GetHistogram(name, "");
      if (hist->Count() != static_cast<uint64_t>(rounds)) {
        std::fprintf(stderr, "%s: %s counted %llu of %lld rounds\n",
                     dataset.name.c_str(), name,
                     static_cast<unsigned long long>(hist->Count()),
                     static_cast<long long>(rounds));
        return 1;
      }
      column.push_back(hist->SumSeconds() / static_cast<double>(rounds));
      total += column.back();
    }
    column.push_back(total);
    columns.push_back(column);
  }

  const char* rows[] = {"User-side Computation", "Mobility Model Construction",
                        "Dynamic Mobility Update", "Real-time Synthesis",
                        "Total"};
  for (int r = 0; r < 5; ++r) {
    table.AddRow({rows[r], FormatDouble(columns[0][r], 6),
                  FormatDouble(columns[1][r], 6),
                  FormatDouble(columns[2][r], 6)});
  }
  std::printf("(mean seconds per timestamp)\n");
  table.Print();
  MaybeWriteCsv(table, options);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::bench::Run(argc, argv); }
