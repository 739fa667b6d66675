// Figure 6 reproduction: impact of the discretization granularity K in
// {2, 6, 10, 14, 18} on query error and average per-timestamp runtime for
// RetraSyn_b and RetraSyn_p across the three datasets.
//
// Expected shape (paper SV-E Fig. 6): utility has an interior optimum — a
// coarse grid blurs mobility patterns while a fine grid inflates the state
// domain and the perturbation noise; runtime grows mildly with K.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"

namespace retrasyn {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchOptions options = BenchOptions::FromFlags(flags);

  std::vector<uint32_t> ks{2, 6, 10, 14, 18};
  if (flags.Has("k")) ks = {options.grid_k};

  std::printf("=== Figure 6: impact of granularity K (eps=%.1f, w=%d) ===\n",
              options.epsilon, options.window);
  TablePrinter csv_table({"dataset", "K", "method", "query_error",
                          "runtime_s_per_ts"});

  for (DatasetKind kind : {DatasetKind::kTDriveLike,
                           DatasetKind::kOldenburgLike,
                           DatasetKind::kSanJoaquinLike}) {
    // Generate once; re-discretize per K.
    DatasetSpec spec;
    switch (kind) {
      case DatasetKind::kTDriveLike:
        spec = TDriveLike(DefaultScale(kind) * options.scale_mult,
                          options.seed);
        break;
      case DatasetKind::kOldenburgLike:
        spec = OldenburgLike(DefaultScale(kind) * options.scale_mult,
                             options.seed + 1);
        break;
      default:
        spec = SanJoaquinLike(DefaultScale(kind) * options.scale_mult,
                              options.seed + 2);
        break;
    }
    const StreamDatabase db = MakeDataset(spec);
    std::printf("\n--- %s (streams=%zu, points=%llu) ---\n", spec.name.c_str(),
                db.streams().size(),
                static_cast<unsigned long long>(db.TotalPoints()));
    TablePrinter table({"K", "method", "QueryError", "Runtime(s/ts)"});

    for (size_t ki = 0; ki < ks.size(); ++ki) {
      const PreparedDataset dataset(db, ks[ki]);
      for (MethodId id : {MethodId::kRetraSynB, MethodId::kRetraSynP}) {
        auto engine =
            MakeEngine(id, dataset.states(), options.epsilon, options.window,
                       AllocationKind::kAdaptive, db.AverageLength(),
                       options.seed + 100 + ki);
        const RunResult result =
            RunEngine(dataset, std::move(engine), options.metrics,
                      options.seed + 1000);
        table.AddRow({std::to_string(ks[ki]), MethodName(id),
                      FormatDouble(result.metrics.query_error),
                      FormatDouble(result.seconds_per_timestamp, 6)});
        csv_table.AddRow({spec.name, std::to_string(ks[ki]), MethodName(id),
                          FormatDouble(result.metrics.query_error),
                          FormatDouble(result.seconds_per_timestamp, 6)});
      }
      if (ki + 1 < ks.size()) table.AddRow(TablePrinter::Separator());
    }
    table.Print();
  }
  MaybeWriteCsv(csv_table, options);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::bench::Run(argc, argv); }
