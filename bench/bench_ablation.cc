// Ablation benches for this implementation's documented design choices
// (beyond the paper's own Table IV ablations, which live in bench_table4):
//
//  1. Estimate post-processing: kClip (default) vs kNormSub. Norm-sub yields
//     a far more accurate global frequency vector but zeroes the outgoing
//     mass of weak cells, freezing their synthetic dynamics; clip preserves
//     per-cell relative structure. This bench quantifies the trade-off.
//  2. Adaptive probe floor: Eq. 10 with min_portion = 0 can starve
//     collection permanently once the stream looks steady; the 1/(2w) floor
//     keeps the curator probing. This bench compares both.
//  3. The Eq. 8 termination factor lambda, swept around the dataset's
//     average stream length (the paper's setting), showing its effect on the
//     trajectory-level metrics.

#include <cstdio>
#include <vector>

#include "bench_common.h"

namespace retrasyn {
namespace bench {
namespace {

RunResult RunConfigured(const NamedDataset& dataset,
                        const BenchOptions& options,
                        const RetraSynConfig& config) {
  return RunEngine(*dataset.prepared,
                   std::make_unique<RetraSynEngine>(dataset.prepared->states(),
                                                    config),
                   options.metrics, options.seed + 1000);
}

RetraSynConfig BaseConfig(const NamedDataset& dataset,
                          const BenchOptions& options) {
  RetraSynConfig config;
  config.epsilon = options.epsilon;
  config.window = options.window;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = dataset.average_length;
  config.seed = options.seed + 7;
  return config;
}

int Run(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  BenchOptions options = BenchOptions::FromFlags(flags);

  const NamedDataset dataset = Prepare(DatasetKind::kTDriveLike, options);

  std::printf(
      "=== Design-choice ablations (T-Drive-like, eps=%.1f, w=%d, K=%u) "
      "===\n",
      options.epsilon, options.window, options.grid_k);

  {
    std::printf("\n-- 1. Estimate post-processing --\n");
    TablePrinter table({"postprocess", "dmu", "Density", "Query", "Hotspot",
                        "KendallTau", "Length"});
    for (Postprocess pp : {Postprocess::kClip, Postprocess::kNormSub}) {
      for (bool use_dmu : {true, false}) {
        RetraSynConfig config = BaseConfig(dataset, options);
        config.postprocess = pp;
        config.use_dmu = use_dmu;
        const RunResult r = RunConfigured(dataset, options, config);
        table.AddRow({pp == Postprocess::kClip ? "clip" : "norm-sub",
                      use_dmu ? "DMU" : "AllUpdate",
                      FormatDouble(r.metrics.density_error),
                      FormatDouble(r.metrics.query_error),
                      FormatDouble(r.metrics.hotspot_ndcg),
                      FormatDouble(r.metrics.kendall_tau),
                      FormatDouble(r.metrics.length_error)});
      }
    }
    table.Print();
  }

  {
    std::printf("\n-- 2. Adaptive probe floor (min_portion) --\n");
    TablePrinter table({"min_portion", "Density", "Transition", "KendallTau",
                        "reports"});
    for (double floor : {-1.0, 0.0}) {
      RetraSynConfig config = BaseConfig(dataset, options);
      config.allocation.min_portion = floor;
      const RunResult r = RunConfigured(dataset, options, config);
      table.AddRow({floor < 0 ? "auto 1/(2w)" : "0 (paper literal)",
                    FormatDouble(r.metrics.density_error),
                    FormatDouble(r.metrics.transition_error),
                    FormatDouble(r.metrics.kendall_tau),
                    std::to_string(r.total_reports)});
    }
    table.Print();
  }

  {
    std::printf("\n-- 3. Termination factor lambda (Eq. 8) --\n");
    TablePrinter table({"lambda/avg_len", "Length", "Trip", "KendallTau",
                        "Density"});
    for (double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      RetraSynConfig config = BaseConfig(dataset, options);
      config.lambda = dataset.average_length * mult;
      const RunResult r = RunConfigured(dataset, options, config);
      table.AddRow({FormatDouble(mult, 2),
                    FormatDouble(r.metrics.length_error),
                    FormatDouble(r.metrics.trip_error),
                    FormatDouble(r.metrics.kendall_tau),
                    FormatDouble(r.metrics.density_error)});
    }
    table.Print();
    std::printf(
        "(paper SV-A sets lambda to the dataset's average stream length, "
        "i.e. 1.0x)\n");
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace retrasyn

int main(int argc, char** argv) { return retrasyn::bench::Run(argc, argv); }
