// Real-time traffic monitoring (the paper's motivating scenario, SI): a city
// operations center wants a live view of congestion, but vehicles refuse to
// share raw locations. Each vehicle pushes LDP-perturbed transition states
// into a TrajectoryService ingestion session; a ReleaseServer subscribed to
// the service maintains the evolving private release and answers congestion
// queries against it instead of against raw data.
//
// The example dispatches a Beijing-like taxi workload event by event —
// Enter/Move/Quit per vehicle per timestamp, the way reports arrive in a
// deployment — and, every few "hours", compares the top congested grid cells
// in the *live* private view (served by the subscribed ReleaseServer) with
// the ground truth, plus the live count for a watched downtown region.
//
// Run:  ./build/examples/traffic_monitoring [--epsilon=1.0]

#include <cstdio>
#include <vector>

#include "common/flags.h"
#include "core/release_server.h"
#include "geo/grid.h"
#include "metrics/histogram.h"
#include "service/trajectory_service.h"
#include "stream/feeder.h"
#include "stream/hotspot_generator.h"

using namespace retrasyn;

namespace {

std::vector<uint32_t> TopCells(const std::vector<uint32_t>& counts, int k) {
  std::vector<double> scores(counts.begin(), counts.end());
  return TopKIndices(scores, k);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::Parse(argc, argv);

  // One synthetic "day and a half" of taxi traffic at 10-minute granularity.
  HotspotGeneratorConfig data_config;
  data_config.num_timestamps = 216;  // 1.5 days
  data_config.initial_users = 3500;
  data_config.mean_arrivals = 260.0;
  Rng data_rng(11);
  const StreamDatabase db = GenerateHotspotStreams(data_config, data_rng);

  const UniformGrid grid(db.box(), 6);
  const StateSpace states(grid);

  RetraSynConfig config;
  config.epsilon = flags.GetDouble("epsilon", 1.0);
  config.window = static_cast<int>(flags.GetInt("w", 20));
  config.division = DivisionStrategy::kPopulation;
  config.lambda = db.AverageLength();
  config.seed = 3;
  auto service_or = TrajectoryService::Create(states, config);
  service_or.status().CheckOK();
  TrajectoryService& service = *service_or.value();
  IngestSession& session = service.session();

  // The operations center subscribes to every closed round.
  ReleaseServer server(grid);
  service.AddSink(&server);

  // A watched region: the 2x2 cell block at the grid center.
  const uint32_t k = grid.k();
  auto in_watched = [&](CellId c) {
    const uint32_t r = grid.Row(c), col = grid.Col(c);
    return r >= k / 2 - 1 && r <= k / 2 && col >= k / 2 - 1 && col <= k / 2;
  };

  // Ground truth for the comparison printouts only (the service never sees
  // it): the discretized original streams.
  const StreamFeeder truth_feeder(db, grid, states);

  std::printf("monitoring %zu taxi streams under %.1f-LDP (w=%d)...\n\n",
              db.streams().size(), config.epsilon, config.window);
  std::printf("%-6s %-8s %-18s %-18s %s\n", "t", "active", "true top-3",
              "released top-3", "watched region true/released");

  // Dispatch per-vehicle events round by round, as a live feed would.
  for (int64_t t = 0; t < db.num_timestamps(); ++t) {
    for (uint32_t idx = 0; idx < db.streams().size(); ++idx) {
      const UserStream& s = db.streams()[idx];
      if (s.enter_time == t) {
        session.Enter(idx, s.points.front()).CheckOK();
      } else if (s.ActiveAt(t)) {
        session.Move(idx, s.At(t)).CheckOK();
      } else if (s.end_time() == t) {
        session.Quit(idx).CheckOK();
      }
    }
    session.Tick().CheckOK();
    if (t % 36 != 35) continue;  // report every 6 hours

    // Live snapshots: ground truth vs the subscribed release server's view.
    const std::vector<uint32_t> truth =
        truth_feeder.cell_streams().DensityCounts(grid.NumCells(), t);
    const std::vector<uint32_t>& released = server.DensityAt(t);
    const auto true_top = TopCells(truth, 3);
    const auto syn_top = TopCells(released, 3);
    uint64_t true_watched = 0, syn_watched = 0;
    for (CellId c = 0; c < grid.NumCells(); ++c) {
      if (!in_watched(c)) continue;
      true_watched += truth[c];
      syn_watched += released[c];
    }
    char true_buf[64], syn_buf[64];
    std::snprintf(true_buf, sizeof(true_buf), "[%u %u %u]", true_top[0],
                  true_top[1], true_top[2]);
    std::snprintf(syn_buf, sizeof(syn_buf), "[%u %u %u]", syn_top[0],
                  syn_top[1], syn_top[2]);
    std::printf("%-6lld %-8llu %-18s %-18s %llu / %llu\n",
                static_cast<long long>(t),
                static_cast<unsigned long long>(server.ActiveAt(t)), true_buf,
                syn_buf, static_cast<unsigned long long>(true_watched),
                static_cast<unsigned long long>(syn_watched));
  }

  std::printf(
      "\nNote: the released view is computed purely from LDP reports; no raw "
      "trajectory ever reaches the center.\n");
  std::printf("w-event discipline intact: %s\n",
              service.retrasyn_engine()->report_tracker().HasViolation()
                  ? "NO (bug!)"
                  : "yes");
  return 0;
}
