// Historical trajectory release: a data holder wants to hand a complete
// trajectory dataset to analysts as a *safe substitute* for the raw traces
// (the paper's historical-analysis use case, SV-B "Historical Metrics").
//
// Pipeline demonstrated here:
//   raw CSV  ->  import (gap splitting, bbox inference)  ->  RetraSyn run
//   ->  synthetic CSV export  +  trajectory-level fidelity report
//
// The example writes its own input CSV first (a network-constrained
// workload), so it is fully self-contained; point it at real data with
// --input=<path>.
//
// Run:  ./build/examples/historical_release [--input=streams.csv]
//       [--output=synthetic.csv] [--epsilon=1.0]

#include <cstdio>
#include <string>

#include "common/flags.h"
#include "geo/grid.h"
#include "metrics/historical.h"
#include "service/replay.h"
#include "service/trajectory_service.h"
#include "stream/feeder.h"
#include "stream/io.h"
#include "stream/network_generator.h"

using namespace retrasyn;

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);
  const std::string input =
      flags.GetString("input", "/tmp/retrasyn_example_input.csv");
  const std::string output =
      flags.GetString("output", "/tmp/retrasyn_example_synthetic.csv");

  if (!flags.Has("input")) {
    // Self-contained mode: fabricate a network-constrained dataset and write
    // it to CSV, playing the role of the raw data owner.
    NetworkGeneratorConfig config;
    config.num_timestamps = 150;
    config.initial_objects = 600;
    config.arrivals_per_timestamp = 25;
    Rng rng(17);
    const StreamDatabase raw = GenerateNetworkStreams(config, rng);
    WriteStreamDatabaseCsv(raw, input).CheckOK();
    std::printf("wrote example raw data to %s\n", input.c_str());
  }

  // Import: groups per-user reports, splits runs at reporting gaps, infers
  // the bounding box and horizon.
  auto imported = LoadStreamDatabaseCsv(input);
  imported.status().CheckOK();
  const StreamDatabase& db = imported.value();
  std::printf("imported %zu streams / %llu points over %lld timestamps\n",
              db.streams().size(),
              static_cast<unsigned long long>(db.TotalPoints()),
              static_cast<long long>(db.num_timestamps()));

  const UniformGrid grid(db.box(), static_cast<uint32_t>(flags.GetInt("k", 6)));
  const StateSpace states(grid);
  const StreamFeeder feeder(db, grid, states);

  RetraSynConfig config;
  config.epsilon = flags.GetDouble("epsilon", 1.0);
  config.window = static_cast<int>(flags.GetInt("w", 20));
  config.division = DivisionStrategy::kPopulation;
  config.lambda = db.AverageLength();
  config.seed = 5;
  auto service_or = TrajectoryService::Create(states, config);
  service_or.status().CheckOK();
  ReplayDatabase(db, *service_or.value()).CheckOK();
  const CellStreamSet synthetic =
      service_or.value()->SnapshotRelease().ValueOrDie();

  // Export the synthetic dataset: this file is safe to hand out; it was
  // derived only from LDP reports (post-processing, Thm. 2).
  WriteCellStreamsCsv(synthetic, grid, output).CheckOK();
  std::printf("wrote synthetic release (%zu streams) to %s\n",
              synthetic.streams().size(), output.c_str());

  // Trajectory-level fidelity report: the metrics that only a synthesis-based
  // release can serve (whole trajectories, not per-timestamp histograms).
  std::printf("\nfidelity of the release (vs. raw, lower is better unless "
              "noted):\n");
  std::printf("  cell-popularity Kendall tau : %+.4f (higher is better)\n",
              CellPopularityKendallTau(feeder.cell_streams(), synthetic,
                                       grid.NumCells()));
  std::printf("  trip (start/end) error      : %.4f\n",
              TripError(feeder.cell_streams(), synthetic, grid.NumCells()));
  std::printf("  stream length error         : %.4f\n",
              LengthError(feeder.cell_streams(), synthetic));
  std::printf("\nanalysts can now run arbitrary trajectory analytics on %s "
              "without touching raw data.\n",
              output.c_str());
  return 0;
}
