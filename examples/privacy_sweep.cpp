// Privacy/utility dial: how the privacy budget epsilon and the protection
// window w trade off against release utility, with the w-event accounting
// made visible. Useful when choosing deployment parameters.
//
//   * For each epsilon, runs both division strategies and reports density /
//     transition error plus the audited privacy ledgers.
//   * For each w at fixed epsilon, shows the utility cost of protecting
//     longer windows.
//
// Run:  ./build/examples/privacy_sweep

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "geo/grid.h"
#include "metrics/queries.h"
#include "metrics/streaming.h"
#include "service/replay.h"
#include "service/trajectory_service.h"
#include "stream/feeder.h"
#include "stream/hotspot_generator.h"

using namespace retrasyn;

namespace {

struct SweepPoint {
  double density;
  double transition;
  double max_window_budget;
  bool population_ok;
  uint64_t reports;
};

SweepPoint RunOnce(const StreamDatabase& db, const StreamFeeder& feeder,
                   const UniformGrid& grid, const StateSpace& states,
                   double epsilon, int w, DivisionStrategy division,
                   double lambda) {
  RetraSynConfig config;
  config.epsilon = epsilon;
  config.window = w;
  config.division = division;
  config.lambda = lambda;
  config.seed = 9;
  auto service_or = TrajectoryService::Create(states, config);
  service_or.status().CheckOK();
  TrajectoryService& service = *service_or.value();
  ReplayDatabase(db, service).CheckOK();
  const CellStreamSet synthetic = service.SnapshotRelease().ValueOrDie();
  const RetraSynEngine& engine = *service.retrasyn_engine();
  const DensityIndex orig(feeder.cell_streams(), grid);
  const DensityIndex syn(synthetic, grid);
  const TransitionIndex orig_tr(feeder.cell_streams(), states);
  const TransitionIndex syn_tr(synthetic, states);
  return SweepPoint{AverageDensityError(orig, syn),
                    AverageTransitionError(orig_tr, syn_tr),
                    engine.budget_ledger().MaxWindowSpend(),
                    !engine.report_tracker().HasViolation(),
                    engine.total_reports()};
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  (void)flags;

  HotspotGeneratorConfig data_config;
  data_config.num_timestamps = 300;
  data_config.initial_users = 900;
  data_config.mean_arrivals = 65.0;
  Rng rng(13);
  const StreamDatabase db = GenerateHotspotStreams(data_config, rng);
  const UniformGrid grid(db.box(), 6);
  const StateSpace states(grid);
  const StreamFeeder feeder(db, grid, states);
  const double lambda = db.AverageLength();

  std::printf("dataset: %zu streams, %lld timestamps\n\n", db.streams().size(),
              static_cast<long long>(db.num_timestamps()));

  std::printf("-- epsilon sweep (w = 20) --\n");
  std::printf("%-8s %-10s %-10s %-12s %-22s %s\n", "eps", "division",
              "density", "transition", "max window budget", "reports");
  for (double eps : {0.5, 1.0, 1.5, 2.0}) {
    for (DivisionStrategy division :
         {DivisionStrategy::kBudget, DivisionStrategy::kPopulation}) {
      const SweepPoint p =
          RunOnce(db, feeder, grid, states, eps, 20, division, lambda);
      char budget_buf[64];
      if (division == DivisionStrategy::kBudget) {
        std::snprintf(budget_buf, sizeof(budget_buf), "%.4f <= eps (%.1f)",
                      p.max_window_budget, eps);
      } else {
        std::snprintf(budget_buf, sizeof(budget_buf), "1 report/window: %s",
                      p.population_ok ? "ok" : "VIOLATED");
      }
      std::printf("%-8.1f %-10s %-10.4f %-12.4f %-22s %llu\n", eps,
                  division == DivisionStrategy::kBudget ? "budget" : "popul.",
                  p.density, p.transition, budget_buf,
                  static_cast<unsigned long long>(p.reports));
    }
  }

  std::printf("\n-- window sweep (eps = 1.0, population division) --\n");
  std::printf("%-6s %-10s %-12s %s\n", "w", "density", "transition",
              "reports");
  for (int w : {10, 20, 30, 40, 50}) {
    const SweepPoint p = RunOnce(db, feeder, grid, states, 1.0, w,
                                 DivisionStrategy::kPopulation, lambda);
    std::printf("%-6d %-10.4f %-12.4f %llu\n", w, p.density, p.transition,
                static_cast<unsigned long long>(p.reports));
  }
  std::printf(
      "\nlarger w protects longer location histories but thins the "
      "per-timestamp report population; epsilon buys utility directly.\n");
  return 0;
}
