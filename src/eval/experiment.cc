#include "eval/experiment.h"

#include "common/logging.h"
#include "common/stopwatch.h"
#include "metrics/historical.h"
#include "service/replay.h"
#include "service/trajectory_service.h"

namespace retrasyn {

PreparedDataset::PreparedDataset(const StreamDatabase& db, uint32_t grid_k,
                                 GridBackend backend) {
  db_ = std::make_unique<StreamDatabase>(db);
  grid_ = MakeSpatialGrid(db.box(), grid_k, backend).ValueOrDie();
  states_ = std::make_unique<StateSpace>(*grid_);
  feeder_ = std::make_unique<StreamFeeder>(db, *grid_, *states_);
  orig_density_ =
      std::make_unique<DensityIndex>(feeder_->cell_streams(), *grid_);
  orig_transitions_ =
      std::make_unique<TransitionIndex>(feeder_->cell_streams(), *states_);
  average_length_ = std::max(1.0, db.AverageLength());
}

MetricsReport EvaluateMetrics(const PreparedDataset& dataset,
                              const CellStreamSet& synthetic,
                              const StreamingMetricsConfig& metrics_config,
                              uint64_t metrics_seed) {
  MetricsReport report;
  const DensityIndex syn_density(synthetic, dataset.grid());
  const TransitionIndex syn_transitions(synthetic, dataset.states());

  report.density_error =
      AverageDensityError(dataset.original_density(), syn_density);
  report.transition_error =
      AverageTransitionError(dataset.original_transitions(), syn_transitions);

  // Each randomized metric gets its own deterministic stream so that the
  // evaluation workload is identical for every engine under comparison.
  {
    Rng rng(metrics_seed * 2654435761ULL + 1);
    report.query_error =
        AverageQueryError(dataset.original_density(), syn_density,
                          dataset.grid(), metrics_config, rng);
  }
  {
    Rng rng(metrics_seed * 2654435761ULL + 2);
    report.hotspot_ndcg = AverageHotspotNdcg(dataset.original_density(),
                                             syn_density, metrics_config, rng);
  }
  {
    Rng rng(metrics_seed * 2654435761ULL + 3);
    report.pattern_f1 = AveragePatternF1(dataset.original(), synthetic,
                                         metrics_config, rng);
  }
  report.kendall_tau = CellPopularityKendallTau(
      dataset.original(), synthetic, dataset.grid().NumCells());
  report.trip_error =
      TripError(dataset.original(), synthetic, dataset.grid().NumCells());
  report.length_error = LengthError(dataset.original(), synthetic);
  return report;
}

RunResult RunEngine(const PreparedDataset& dataset,
                    std::unique_ptr<StreamReleaseEngine> engine,
                    const StreamingMetricsConfig& metrics_config,
                    uint64_t metrics_seed) {
  RunResult result;
  result.engine_name = engine->name();

  auto service =
      TrajectoryService::CreateWithEngine(dataset.states(), std::move(engine));
  service.status().CheckOK();

  Stopwatch watch;
  ReplayDatabase(dataset.db(), *service.value()).CheckOK();
  result.engine_seconds = watch.ElapsedSeconds();
  result.seconds_per_timestamp =
      dataset.horizon() > 0
          ? result.engine_seconds / static_cast<double>(dataset.horizon())
          : 0.0;

  const CellStreamSet synthetic =
      service.value()->SnapshotRelease(dataset.horizon()).ValueOrDie();
  result.metrics =
      EvaluateMetrics(dataset, synthetic, metrics_config, metrics_seed);

  const StreamReleaseEngine& ran = service.value()->engine();
  if (const auto* retra = dynamic_cast<const RetraSynEngine*>(&ran)) {
    result.total_reports = retra->total_reports();
    result.max_window_budget = retra->budget_ledger().MaxWindowSpend();
    result.report_window_violation = retra->report_tracker().HasViolation();
  } else if (const auto* ids = dynamic_cast<const LdpIdsEngine*>(&ran)) {
    result.max_window_budget = ids->budget_ledger().MaxWindowSpend();
    result.report_window_violation = ids->report_tracker().HasViolation();
  }
  return result;
}

const char* MethodName(MethodId id) {
  switch (id) {
    case MethodId::kLBD:
      return "LBD";
    case MethodId::kLBA:
      return "LBA";
    case MethodId::kLPD:
      return "LPD";
    case MethodId::kLPA:
      return "LPA";
    case MethodId::kRetraSynB:
      return "RetraSyn_b";
    case MethodId::kRetraSynP:
      return "RetraSyn_p";
    case MethodId::kAllUpdateB:
      return "AllUpdate_b";
    case MethodId::kAllUpdateP:
      return "AllUpdate_p";
    case MethodId::kNoEQB:
      return "NoEQ_b";
    case MethodId::kNoEQP:
      return "NoEQ_p";
  }
  return "?";
}

std::unique_ptr<StreamReleaseEngine> MakeEngine(MethodId id,
                                                const StateSpace& states,
                                                double epsilon, int window,
                                                AllocationKind allocation,
                                                double lambda, uint64_t seed,
                                                CollectionMode mode) {
  switch (id) {
    case MethodId::kLBD:
    case MethodId::kLBA:
    case MethodId::kLPD:
    case MethodId::kLPA: {
      LdpIdsConfig config;
      config.epsilon = epsilon;
      config.window = window;
      config.collection_mode = mode;
      config.seed = seed;
      switch (id) {
        case MethodId::kLBD:
          config.method = LdpIdsMethod::kLBD;
          break;
        case MethodId::kLBA:
          config.method = LdpIdsMethod::kLBA;
          break;
        case MethodId::kLPD:
          config.method = LdpIdsMethod::kLPD;
          break;
        default:
          config.method = LdpIdsMethod::kLPA;
          break;
      }
      return std::make_unique<LdpIdsEngine>(states, config);
    }
    default: {
      RetraSynConfig config;
      config.epsilon = epsilon;
      config.window = window;
      config.allocation.kind = allocation;
      config.lambda = lambda;
      config.collection_mode = mode;
      config.seed = seed;
      config.division = (id == MethodId::kRetraSynB ||
                         id == MethodId::kAllUpdateB || id == MethodId::kNoEQB)
                            ? DivisionStrategy::kBudget
                            : DivisionStrategy::kPopulation;
      config.use_dmu =
          !(id == MethodId::kAllUpdateB || id == MethodId::kAllUpdateP);
      config.use_eq = !(id == MethodId::kNoEQB || id == MethodId::kNoEQP);
      return std::make_unique<RetraSynEngine>(states, config);
    }
  }
}

}  // namespace retrasyn
