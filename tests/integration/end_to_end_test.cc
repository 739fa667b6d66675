// Full-pipeline integration tests: generator -> CSV round trip -> feeder ->
// engine (real per-user OUE clients) -> synthesis -> metrics, plus
// cross-method shape assertions mirroring the paper's headline claims at
// tiny scale.

#include <gtest/gtest.h>

#include "eval/experiment.h"
#include "stream/io.h"

namespace retrasyn {
namespace {

StreamingMetricsConfig FastMetrics() {
  StreamingMetricsConfig config;
  config.phi = 5;
  config.num_queries = 30;
  config.num_hotspot_ranges = 10;
  config.num_pattern_ranges = 10;
  return config;
}

TEST(EndToEndTest, CsvRoundTripThroughFullPipeline) {
  // Generate, export, re-import, and verify the pipeline produces identical
  // ground truth from the re-imported data.
  const StreamDatabase db = MakeDataset(RandomWalkSmall(0.5, 51));
  const std::string path = testing::TempDir() + "/e2e_streams.csv";
  ASSERT_TRUE(WriteStreamDatabaseCsv(db, path).ok());

  ImportOptions options;
  options.box = db.box();
  options.num_timestamps = db.num_timestamps();
  auto loaded = LoadStreamDatabaseCsv(path, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().TotalPoints(), db.TotalPoints());
  EXPECT_EQ(loaded.value().streams().size(), db.streams().size());

  const PreparedDataset original(db, 4);
  const PreparedDataset reimported(loaded.value(), 4);
  // Same discretized ground truth (densities per timestamp).
  for (int64_t t = 0; t < original.horizon(); ++t) {
    EXPECT_EQ(original.original_density().DensityAt(t),
              reimported.original_density().DensityAt(t))
        << "t=" << t;
  }
}

TEST(EndToEndTest, PerUserProtocolFullRun) {
  // The real protocol (every user runs an OUE client) end to end.
  const StreamDatabase db = MakeDataset(RandomWalkSmall(0.4, 52));
  const PreparedDataset dataset(db, 4);
  auto engine = MakeEngine(MethodId::kRetraSynP, dataset.states(), 1.0, 10,
                           AllocationKind::kAdaptive,
                           dataset.average_length(), 7,
                           CollectionMode::kPerUser);
  const RunResult result = RunEngine(dataset, std::move(engine),
                                     FastMetrics(), 11);
  EXPECT_GT(result.total_reports, 0u);
  EXPECT_FALSE(result.report_window_violation);
  EXPECT_LT(result.metrics.density_error, 0.6931);
}

TEST(EndToEndTest, EnterQuitModelingImprovesTrajectoryMetrics) {
  // Table IV's shape: NoEQ collapses the Length Error to ln 2 while RetraSyn
  // stays well below, and RetraSyn's Trip Error (start/end cells) is lower.
  // (At this scale the Kendall tau ordering is a coin flip: RetraSyn's is
  // higher in about 54% of seeds.)
  const StreamDatabase db = MakeDataset(TDriveLike(0.02, 53));
  const PreparedDataset dataset(db, 6);
  auto retra = MakeEngine(MethodId::kRetraSynP, dataset.states(), 1.0, 20,
                          AllocationKind::kAdaptive,
                          dataset.average_length(), 7);
  auto noeq = MakeEngine(MethodId::kNoEQP, dataset.states(), 1.0, 20,
                         AllocationKind::kAdaptive,
                         dataset.average_length(), 7);
  const RunResult r_retra = RunEngine(dataset, std::move(retra),
                                      FastMetrics(), 21);
  const RunResult r_noeq = RunEngine(dataset, std::move(noeq),
                                     FastMetrics(), 21);
  EXPECT_NEAR(r_noeq.metrics.length_error, 0.6931, 1e-3);
  EXPECT_LT(r_retra.metrics.length_error, 0.5);
  EXPECT_LT(r_retra.metrics.trip_error, r_noeq.metrics.trip_error);
}

TEST(EndToEndTest, RetraSynBeatsLdpIdsOnDensity) {
  // Table III's headline ordering at small scale: RetraSyn_p lower density
  // error than every LDP-IDS strategy on hotspot-structured data.
  const StreamDatabase db = MakeDataset(TDriveLike(0.02, 54));
  const PreparedDataset dataset(db, 6);
  auto run = [&](MethodId id) {
    auto engine = MakeEngine(id, dataset.states(), 1.0, 20,
                             AllocationKind::kAdaptive,
                             dataset.average_length(), 7);
    return RunEngine(dataset, std::move(engine), FastMetrics(), 31).metrics;
  };
  const MetricsReport retra = run(MethodId::kRetraSynP);
  for (MethodId id :
       {MethodId::kLBD, MethodId::kLBA, MethodId::kLPD, MethodId::kLPA}) {
    const MetricsReport baseline = run(id);
    EXPECT_LT(retra.density_error, baseline.density_error + 0.05)
        << MethodName(id);
    EXPECT_LT(retra.length_error, baseline.length_error) << MethodName(id);
  }
}

TEST(EndToEndTest, HigherEpsilonNotWorseForRetraSyn) {
  // Table III's trend: RetraSyn's utility improves (or at least does not
  // materially degrade) as the privacy budget grows.
  const StreamDatabase db = MakeDataset(TDriveLike(0.02, 55));
  const PreparedDataset dataset(db, 6);
  auto density_at = [&](double eps) {
    auto engine = MakeEngine(MethodId::kRetraSynP, dataset.states(), eps, 20,
                             AllocationKind::kAdaptive,
                             dataset.average_length(), 7);
    return RunEngine(dataset, std::move(engine), FastMetrics(), 41)
        .metrics.density_error;
  };
  const double low = density_at(0.5);
  const double high = density_at(2.0);
  EXPECT_LE(high, low + 0.05);
}

TEST(EndToEndTest, WholePipelineDeterministic) {
  auto run_once = [&]() {
    const StreamDatabase db = MakeDataset(RandomWalkSmall(0.4, 56));
    const PreparedDataset dataset(db, 4);
    auto engine = MakeEngine(MethodId::kRetraSynP, dataset.states(), 1.0, 10,
                             AllocationKind::kAdaptive, 12.0, 9);
    return RunEngine(dataset, std::move(engine), FastMetrics(), 61);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_DOUBLE_EQ(a.metrics.density_error, b.metrics.density_error);
  EXPECT_DOUBLE_EQ(a.metrics.query_error, b.metrics.query_error);
  EXPECT_DOUBLE_EQ(a.metrics.pattern_f1, b.metrics.pattern_f1);
  EXPECT_DOUBLE_EQ(a.metrics.trip_error, b.metrics.trip_error);
  EXPECT_EQ(a.total_reports, b.total_reports);
}

}  // namespace
}  // namespace retrasyn
