// Quickstart: the full RetraSyn pipeline in ~60 lines, driven through the
// streaming service layer.
//
//   1. Generate a small synthetic trajectory stream (stand-in for data
//      arriving from users' devices).
//   2. Discretize the space into a K x K grid and derive the transition-state
//      space.
//   3. Open a TrajectoryService and replay the data through its ingestion
//      session: per-timestamp LDP collection (OUE), dynamic mobility update,
//      and real-time synthesis under w-event epsilon-LDP. A mid-stream
//      snapshot shows that releases are consumable while the stream is open.
//   4. Inspect the released synthetic database and a couple of utility
//      metrics.
//   5. Dump the service's telemetry (Prometheus text format) with
//      --metrics: every pipeline counter and latency histogram, ready
//      for a scrape endpoint.
//
// Build & run:  ./build/examples/quickstart [--epsilon=1.0] [--w=20]
//               [--metrics]

#include <cstdio>

#include "common/flags.h"
#include "geo/grid.h"
#include "metrics/historical.h"
#include "metrics/queries.h"
#include "metrics/streaming.h"
#include "service/replay.h"
#include "service/trajectory_service.h"
#include "telemetry/prometheus_writer.h"
#include "stream/feeder.h"
#include "stream/hotspot_generator.h"

using namespace retrasyn;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);

  // 1. A small city-taxi stream database: ~2k streams over 200 timestamps.
  HotspotGeneratorConfig data_config;
  data_config.num_timestamps = 200;
  data_config.initial_users = 1500;
  data_config.mean_arrivals = 110.0;
  Rng data_rng(7);
  const StreamDatabase db = GenerateHotspotStreams(data_config, data_rng);
  std::printf("input: %zu streams, %llu points, %lld timestamps\n",
              db.streams().size(),
              static_cast<unsigned long long>(db.TotalPoints()),
              static_cast<long long>(db.num_timestamps()));

  // 2. Geospatial discretization and the transition-state space.
  const UniformGrid grid(db.box(), /*k=*/6);
  const StateSpace states(grid);
  std::printf("grid: %u cells, state space |S| = %u\n", grid.NumCells(),
              states.size());

  // 3. RetraSyn with population division + adaptive allocation, behind the
  //    streaming service. Create() validates the config instead of crashing.
  RetraSynConfig config;
  config.epsilon = flags.GetDouble("epsilon", 1.0);
  config.window = static_cast<int>(flags.GetInt("w", 20));
  config.division = DivisionStrategy::kPopulation;
  config.allocation.kind = AllocationKind::kAdaptive;
  config.lambda = db.AverageLength();
  config.seed = 1;
  auto service_or = TrajectoryService::Create(states, config);
  if (!service_or.ok()) {
    std::fprintf(stderr, "bad config: %s\n",
                 service_or.status().ToString().c_str());
    return 1;
  }
  TrajectoryService& service = *service_or.value();

  // Feed the database through the ingestion session (live deployments call
  // session().Enter/Move/Quit directly as reports arrive).
  ReplayDatabase(db, service).CheckOK();

  // Releases are non-destructive: snapshot now, keep streaming later.
  const CellStreamSet synthetic =
      service.SnapshotRelease().ValueOrDie();
  std::printf("released: %zu synthetic streams, %llu points\n",
              synthetic.streams().size(),
              static_cast<unsigned long long>(synthetic.TotalPoints()));
  const RetraSynEngine& engine = *service.retrasyn_engine();
  std::printf("privacy: %llu user reports, each once per w=%d window: %s\n",
              static_cast<unsigned long long>(engine.total_reports()),
              config.window,
              engine.report_tracker().HasViolation() ? "VIOLATED" : "ok");

  // 4. A taste of the utility metrics (ground truth via the batch feeder).
  const StreamFeeder feeder(db, grid, states);
  const DensityIndex orig_density(feeder.cell_streams(), grid);
  const DensityIndex syn_density(synthetic, grid);
  std::printf("density error (mean per-timestamp JSD): %.4f  (worst: 0.6931)\n",
              AverageDensityError(orig_density, syn_density));
  std::printf("cell-popularity Kendall tau: %.4f  (best: 1.0)\n",
              CellPopularityKendallTau(feeder.cell_streams(), synthetic,
                                       grid.NumCells()));

  // Peek at one synthetic trajectory.
  const CellStream& s = synthetic.streams().front();
  std::printf("sample synthetic stream (enters t=%lld): ",
              static_cast<long long>(s.enter_time));
  for (size_t i = 0; i < s.cells.size() && i < 12; ++i) {
    std::printf("%u ", s.cells[i]);
  }
  std::printf("%s\n", s.cells.size() > 12 ? "..." : "");

  // 5. Unified telemetry: one snapshot covers ingest, synthesis, journal,
  //    and checkpoint metrics plus per-round lifecycle traces. A real
  //    deployment serves this string from its /metrics endpoint.
  if (flags.GetBool("metrics", false)) {
    const TelemetrySnapshot telemetry = service.telemetry();
    std::printf("\n--- /metrics ---\n%s",
                PrometheusText(telemetry).c_str());
    if (!telemetry.recent_rounds.empty()) {
      const RoundSpanSnapshot& last = telemetry.recent_rounds.back();
      std::printf("last round %lld: close %.3f ms\n",
                  static_cast<long long>(last.round),
                  last.phase_seconds[static_cast<size_t>(RoundPhase::kClose)] *
                      1e3);
    }
  }
  return 0;
}
