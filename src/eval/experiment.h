// Experiment harness: prepares a dataset once (grid mapping, feeder batches,
// ground-truth indices), runs any StreamReleaseEngine over it, and evaluates
// the full metric suite of SV-B. All bench binaries are thin wrappers over
// this module.

#ifndef RETRASYN_EVAL_EXPERIMENT_H_
#define RETRASYN_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>

#include "baselines/ldp_ids.h"
#include "core/engine.h"
#include "eval/datasets.h"
#include "geo/grid_factory.h"
#include "metrics/queries.h"
#include "metrics/streaming.h"
#include "stream/feeder.h"

namespace retrasyn {

/// \brief All eight utility metrics of the paper's evaluation.
struct MetricsReport {
  double density_error = 0.0;
  double query_error = 0.0;
  double hotspot_ndcg = 0.0;
  double transition_error = 0.0;
  double pattern_f1 = 0.0;
  double kendall_tau = 0.0;
  double trip_error = 0.0;
  double length_error = 0.0;
};

/// \brief A dataset discretized against a grid, with ground-truth indices
/// built once and shared across all engine runs of an experiment. Keeps the
/// raw database so runs can replay it through the streaming service layer.
class PreparedDataset {
 public:
  /// Discretizes against \p backend at an effective cell count matched to a
  /// uniform grid_k x grid_k grid (see MakeSpatialGrid).
  PreparedDataset(const StreamDatabase& db, uint32_t grid_k,
                  GridBackend backend = GridBackend::kUniform);

  const StreamDatabase& db() const { return *db_; }
  const SpatialGrid& grid() const { return *grid_; }
  const StateSpace& states() const { return *states_; }
  const StreamFeeder& feeder() const { return *feeder_; }
  const CellStreamSet& original() const { return feeder_->cell_streams(); }
  const DensityIndex& original_density() const { return *orig_density_; }
  const TransitionIndex& original_transitions() const {
    return *orig_transitions_;
  }
  int64_t horizon() const { return feeder_->num_timestamps(); }
  double average_length() const { return average_length_; }

 private:
  std::unique_ptr<StreamDatabase> db_;
  std::unique_ptr<SpatialGrid> grid_;
  std::unique_ptr<StateSpace> states_;
  std::unique_ptr<StreamFeeder> feeder_;
  std::unique_ptr<DensityIndex> orig_density_;
  std::unique_ptr<TransitionIndex> orig_transitions_;
  double average_length_ = 1.0;
};

/// \brief Outcome of one engine run over a prepared dataset.
struct RunResult {
  std::string engine_name;
  MetricsReport metrics;
  /// Total wall-clock of the streaming run: the engine's Observe work plus
  /// the ingestion-session overhead of the service replay (the deployed
  /// path). Per-component engine times (paper Table V) are the service's
  /// retrasyn_engine_*_seconds histograms (TrajectoryService::telemetry()).
  double engine_seconds = 0.0;
  double seconds_per_timestamp = 0.0;
  uint64_t total_reports = 0;
  double max_window_budget = 0.0;       ///< budget-division w-event audit
  bool report_window_violation = false; ///< population-division audit
};

/// \brief Streams the dataset through \p engine via the streaming service
/// layer (TrajectoryService + ReplayDatabase; bit-identical to the legacy
/// precomputed-batch loop), then evaluates all metrics. The service owns
/// the engine for the run; the privacy audits are read from it into the
/// result. The same \p metrics_seed must be reused across engines under
/// comparison so they face identical random queries/ranges.
RunResult RunEngine(const PreparedDataset& dataset,
                    std::unique_ptr<StreamReleaseEngine> engine,
                    const StreamingMetricsConfig& metrics_config,
                    uint64_t metrics_seed);

/// \brief Computes the metric suite for an already-released synthetic set.
MetricsReport EvaluateMetrics(const PreparedDataset& dataset,
                              const CellStreamSet& synthetic,
                              const StreamingMetricsConfig& metrics_config,
                              uint64_t metrics_seed);

/// \brief The six methods of the paper's headline comparison plus the four
/// ablation variants of Table IV.
enum class MethodId {
  kLBD,
  kLBA,
  kLPD,
  kLPA,
  kRetraSynB,
  kRetraSynP,
  kAllUpdateB,
  kAllUpdateP,
  kNoEQB,
  kNoEQP,
};

const char* MethodName(MethodId id);

/// \brief Engine factory shared by benches/examples. \p lambda is the Eq. 8
/// reweighting factor (pass the dataset's average stream length);
/// \p allocation applies to the RetraSyn-family methods only.
std::unique_ptr<StreamReleaseEngine> MakeEngine(
    MethodId id, const StateSpace& states, double epsilon, int window,
    AllocationKind allocation, double lambda, uint64_t seed,
    CollectionMode mode = CollectionMode::kAggregateSim);

}  // namespace retrasyn

#endif  // RETRASYN_EVAL_EXPERIMENT_H_
