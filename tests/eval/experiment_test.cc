#include "eval/experiment.h"

#include <gtest/gtest.h>

namespace retrasyn {
namespace {

constexpr double kLn2 = 0.6931471805599453;

DatasetSpec SmallSpec() {
  DatasetSpec spec = RandomWalkSmall(1.0, 21);
  return spec;
}

StreamingMetricsConfig FastMetrics() {
  StreamingMetricsConfig config;
  config.phi = 5;
  config.num_queries = 30;
  config.num_hotspot_ranges = 15;
  config.num_pattern_ranges = 15;
  return config;
}

TEST(DatasetsTest, RegistryLookup) {
  EXPECT_TRUE(DatasetByName("tdrive", 0.1, 1).ok());
  EXPECT_TRUE(DatasetByName("oldenburg", 0.1, 1).ok());
  EXPECT_TRUE(DatasetByName("sanjoaquin", 0.1, 1).ok());
  EXPECT_TRUE(DatasetByName("randomwalk", 0.1, 1).ok());
  EXPECT_FALSE(DatasetByName("beijing", 0.1, 1).ok());
}

TEST(DatasetsTest, ScaleChangesPopulation) {
  const StreamDatabase small = MakeDataset(RandomWalkSmall(0.5, 9));
  const StreamDatabase large = MakeDataset(RandomWalkSmall(2.0, 9));
  EXPECT_GT(large.streams().size(), small.streams().size());
}

TEST(PreparedDatasetTest, ConsistentViews) {
  const StreamDatabase db = MakeDataset(SmallSpec());
  const PreparedDataset dataset(db, 5);
  ASSERT_NE(dataset.grid().AsUniform(), nullptr);
  EXPECT_EQ(dataset.grid().AsUniform()->k(), 5u);
  EXPECT_EQ(dataset.grid().NumCells(), 25u);
  EXPECT_EQ(dataset.horizon(), db.num_timestamps());
  EXPECT_EQ(dataset.original().streams().size(), db.streams().size());
  EXPECT_NEAR(dataset.average_length(), db.AverageLength(), 1e-9);
  EXPECT_EQ(dataset.original_density().num_timestamps(), dataset.horizon());
}

TEST(MethodFactoryTest, AllMethodsConstructible) {
  const StreamDatabase db = MakeDataset(SmallSpec());
  const PreparedDataset dataset(db, 4);
  for (MethodId id :
       {MethodId::kLBD, MethodId::kLBA, MethodId::kLPD, MethodId::kLPA,
        MethodId::kRetraSynB, MethodId::kRetraSynP, MethodId::kAllUpdateB,
        MethodId::kAllUpdateP, MethodId::kNoEQB, MethodId::kNoEQP}) {
    auto engine = MakeEngine(id, dataset.states(), 1.0, 10,
                             AllocationKind::kAdaptive, 12.0, 3);
    ASSERT_NE(engine, nullptr) << MethodName(id);
  }
}

class RunEngineTest : public testing::TestWithParam<MethodId> {};

TEST_P(RunEngineTest, MetricsWithinTheoreticalBounds) {
  const StreamDatabase db = MakeDataset(SmallSpec());
  const PreparedDataset dataset(db, 4);
  auto engine =
      MakeEngine(GetParam(), dataset.states(), 1.0, 10,
                 AllocationKind::kAdaptive, dataset.average_length(), 3);
  const RunResult result = RunEngine(dataset, std::move(engine),
                                     FastMetrics(), 99);
  const MetricsReport& m = result.metrics;
  EXPECT_GE(m.density_error, 0.0);
  EXPECT_LE(m.density_error, kLn2 + 1e-9);
  EXPECT_GE(m.transition_error, 0.0);
  EXPECT_LE(m.transition_error, kLn2 + 1e-9);
  EXPECT_GE(m.trip_error, 0.0);
  EXPECT_LE(m.trip_error, kLn2 + 1e-9);
  EXPECT_GE(m.length_error, 0.0);
  EXPECT_LE(m.length_error, kLn2 + 1e-9);
  EXPECT_GE(m.query_error, 0.0);
  EXPECT_GE(m.hotspot_ndcg, 0.0);
  EXPECT_LE(m.hotspot_ndcg, 1.0 + 1e-9);
  EXPECT_GE(m.pattern_f1, 0.0);
  EXPECT_LE(m.pattern_f1, 1.0 + 1e-9);
  EXPECT_GE(m.kendall_tau, -1.0 - 1e-9);
  EXPECT_LE(m.kendall_tau, 1.0 + 1e-9);
  EXPECT_GT(result.engine_seconds, 0.0);
  EXPECT_FALSE(result.report_window_violation);
}

INSTANTIATE_TEST_SUITE_P(CoreMethods, RunEngineTest,
                         testing::Values(MethodId::kRetraSynP,
                                         MethodId::kRetraSynB,
                                         MethodId::kLPD, MethodId::kLBA),
                         [](const testing::TestParamInfo<MethodId>& info) {
                           return MethodName(info.param);
                         });

TEST(RunEngineTest, IdenticalMetricSeedsGiveComparableEvaluations) {
  // Two engines evaluated with the same metrics seed face identical queries;
  // the *same* engine evaluated twice must produce identical metric values.
  const StreamDatabase db = MakeDataset(SmallSpec());
  const PreparedDataset dataset(db, 4);
  auto make = [&]() {
    return MakeEngine(MethodId::kRetraSynP, dataset.states(), 1.0, 10,
                      AllocationKind::kAdaptive, 12.0, 3);
  };
  auto e1 = make();
  auto e2 = make();
  const RunResult r1 = RunEngine(dataset, std::move(e1), FastMetrics(), 123);
  const RunResult r2 = RunEngine(dataset, std::move(e2), FastMetrics(), 123);
  EXPECT_DOUBLE_EQ(r1.metrics.density_error, r2.metrics.density_error);
  EXPECT_DOUBLE_EQ(r1.metrics.query_error, r2.metrics.query_error);
  EXPECT_DOUBLE_EQ(r1.metrics.kendall_tau, r2.metrics.kendall_tau);
}

TEST(RunEngineTest, RetraSynBeatsWorstCaseOnStructuredData) {
  // A weak end-to-end utility assertion: on hotspot-structured data RetraSyn_p
  // must stay clearly below the worst-case density error and produce a
  // positive Kendall tau (shape-level reproduction of Table III's ordering).
  DatasetSpec spec = TDriveLike(0.02, 31);
  const StreamDatabase db = MakeDataset(spec);
  const PreparedDataset dataset(db, 6);
  auto engine =
      MakeEngine(MethodId::kRetraSynP, dataset.states(), 1.0, 20,
                 AllocationKind::kAdaptive, dataset.average_length(), 3);
  const RunResult result = RunEngine(dataset, std::move(engine),
                                     FastMetrics(), 77);
  EXPECT_LT(result.metrics.density_error, 0.45);
  EXPECT_GT(result.metrics.kendall_tau, 0.25);
  EXPECT_GT(result.metrics.hotspot_ndcg, 0.3);
}

TEST(MethodNameTest, AllNamed) {
  EXPECT_STREQ(MethodName(MethodId::kRetraSynP), "RetraSyn_p");
  EXPECT_STREQ(MethodName(MethodId::kNoEQB), "NoEQ_b");
  EXPECT_STREQ(MethodName(MethodId::kLBD), "LBD");
}

}  // namespace
}  // namespace retrasyn
