// Figure 7 reproduction: scalability — average per-timestamp runtime of
// RetraSyn_b and RetraSyn_p as the dataset size varies over 20%..100% of
// each dataset's population.
//
// Expected shape (paper SV-E Fig. 7): runtime grows linearly with dataset
// size; the population-division variant is slightly cheaper because only a
// sampled fraction of users reports per timestamp.

#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/rng.h"
#include "common/stopwatch.h"

namespace retrasyn {
namespace bench {
namespace {

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchOptions options = BenchOptions::FromFlags(flags);

  const std::vector<double> fractions{0.2, 0.4, 0.6, 0.8, 1.0};

  std::printf("=== Figure 7: scalability (eps=%.1f, w=%d, K=%u) ===\n",
              options.epsilon, options.window, options.grid_k);
  TablePrinter csv_table(
      {"dataset", "fraction", "streams", "method", "runtime_s_per_ts"});

  for (DatasetKind kind : {DatasetKind::kTDriveLike,
                           DatasetKind::kOldenburgLike,
                           DatasetKind::kSanJoaquinLike}) {
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
    const StreamDatabase full = MakeDataset(spec);
    std::printf("\n--- %s (full: %zu streams) ---\n", spec.name.c_str(),
                full.streams().size());
    TablePrinter table({"fraction", "streams", "method", "Runtime(s/ts)"});

    for (size_t fi = 0; fi < fractions.size(); ++fi) {
      Rng sub_rng(options.seed + 50 + fi);
      const StreamDatabase db =
          fractions[fi] >= 1.0 ? full : full.Subsample(fractions[fi], sub_rng);
      const PreparedDataset dataset(db, options.grid_k);
      for (MethodId id : {MethodId::kRetraSynB, MethodId::kRetraSynP}) {
        auto engine =
            MakeEngine(id, dataset.states(), options.epsilon, options.window,
                       AllocationKind::kAdaptive, db.AverageLength(),
                       options.seed + 100 + fi);
        // Time the engine only; skip metric evaluation (runtime figure).
        Stopwatch watch;
        for (int64_t t = 0; t < dataset.horizon(); ++t) {
          engine->Observe(dataset.feeder().Batch(t));
        }
        const double per_ts =
            watch.ElapsedSeconds() / static_cast<double>(dataset.horizon());
        table.AddRow({FormatDouble(fractions[fi], 1),
                      std::to_string(db.streams().size()), MethodName(id),
                      FormatDouble(per_ts, 6)});
        csv_table.AddRow({spec.name, FormatDouble(fractions[fi], 1),
                          std::to_string(db.streams().size()), MethodName(id),
                          FormatDouble(per_ts, 6)});
      }
      if (fi + 1 < fractions.size()) table.AddRow(TablePrinter::Separator());
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
