// Acceptance tests for the unified telemetry subsystem at the service layer:
// telemetry is observation-only (released bytes are byte-identical attached
// vs detached, under both sync policies), the snapshot reflects the actual
// pipeline activity, disabling yields an empty snapshot, and sink failures
// land in the sticky first-failure record.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geo/grid.h"
#include "geo/grid_factory.h"
#include "service/trajectory_service.h"
#include "telemetry/prometheus_writer.h"
#include "telemetry/telemetry.h"

namespace retrasyn {
namespace {

struct DeviceTrace {
  int64_t enter_time = 0;
  std::vector<Point> points;
};

constexpr int64_t kHorizon = 20;

std::vector<DeviceTrace> MakeWorkload(uint64_t seed, int devices) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  Rng rng(seed);
  std::vector<DeviceTrace> traces;
  for (int i = 0; i < devices; ++i) {
    DeviceTrace trace;
    trace.enter_time = static_cast<int64_t>(rng.UniformInt(kHorizon - 2));
    const int64_t max_len = kHorizon - trace.enter_time;
    const int64_t len =
        1 + static_cast<int64_t>(rng.UniformInt(
                static_cast<uint64_t>(std::min<int64_t>(max_len, 10))));
    Point p{box.min_x + rng.UniformDouble() * box.Width(),
            box.min_y + rng.UniformDouble() * box.Height()};
    for (int64_t k = 0; k < len; ++k) {
      trace.points.push_back(p);
      p = box.Clamp(Point{p.x + (rng.UniformDouble() - 0.5) * 80.0,
                          p.y + (rng.UniformDouble() - 0.5) * 80.0});
    }
    traces.push_back(std::move(trace));
  }
  return traces;
}

RetraSynConfig BaseConfig() {
  RetraSynConfig config;
  config.epsilon = 1.0;
  config.window = 8;
  config.division = DivisionStrategy::kPopulation;
  config.lambda = 6.0;
  config.seed = 7;
  return config;
}

void DriveRounds(IngestSession& session, const std::vector<DeviceTrace>& traces,
                 int64_t from, int64_t to) {
  for (int64_t t = from; t < to; ++t) {
    for (uint64_t id = 0; id < traces.size(); ++id) {
      const DeviceTrace& trace = traces[id];
      const int64_t end =
          trace.enter_time + static_cast<int64_t>(trace.points.size());
      if (t == trace.enter_time) {
        ASSERT_TRUE(session.Enter(id, trace.points.front()).ok());
      } else if (t > trace.enter_time && t < end) {
        ASSERT_TRUE(session.Move(id, trace.points[t - trace.enter_time]).ok());
      } else if (t == end && end < kHorizon) {
        ASSERT_TRUE(session.Quit(id).ok());
      }
    }
    ASSERT_TRUE(session.Tick().ok());
  }
}

void ExpectSameRelease(const CellStreamSet& a, const CellStreamSet& b) {
  ASSERT_EQ(a.num_timestamps(), b.num_timestamps());
  ASSERT_EQ(a.streams().size(), b.streams().size());
  ASSERT_EQ(a.TotalPoints(), b.TotalPoints());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time)
        << "stream " << i;
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells) << "stream " << i;
  }
}

const MetricSample* FindMetric(const TelemetrySnapshot& snap,
                               const std::string& name) {
  for (const MetricSample& sample : snap.metrics) {
    if (sample.name == name && sample.labels.empty()) return &sample;
  }
  return nullptr;
}

TEST(ServiceTelemetryTest, OnOffReleasesIdenticalBytesInline) {
  // The tentpole invariant: telemetry is pure observation. Attached or
  // detached, the released bytes are identical — same invariant class as
  // Inline-vs-Async and sharded-vs-unsharded.
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const StateSpace states(*grid_owner);
  const auto traces = MakeWorkload(51, 80);

  RetraSynConfig with = BaseConfig();
  with.enable_telemetry = true;
  RetraSynConfig without = BaseConfig();
  without.enable_telemetry = false;

  auto a = TrajectoryService::Create(states, with);
  auto b = TrajectoryService::Create(states, without);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  DriveRounds(a.value()->session(), traces, 0, kHorizon);
  DriveRounds(b.value()->session(), traces, 0, kHorizon);

  auto got = a.value()->SnapshotRelease();
  auto want = b.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameRelease(got.value(), want.value());
}

TEST(ServiceTelemetryTest, OnOffReleasesIdenticalBytesAsync) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const StateSpace states(*grid_owner);
  const auto traces = MakeWorkload(53, 60);

  RetraSynConfig with = BaseConfig();
  with.sync_policy = SyncPolicy::kAsync;
  with.ingest_shards = 2;
  with.enable_telemetry = true;
  RetraSynConfig without = with;
  without.enable_telemetry = false;

  auto a = TrajectoryService::Create(states, with);
  auto b = TrajectoryService::Create(states, without);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  DriveRounds(a.value()->session(), traces, 0, kHorizon);
  DriveRounds(b.value()->session(), traces, 0, kHorizon);
  ASSERT_TRUE(a.value()->Drain().ok());
  ASSERT_TRUE(b.value()->Drain().ok());

  auto got = a.value()->SnapshotRelease();
  auto want = b.value()->SnapshotRelease();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  ExpectSameRelease(got.value(), want.value());
}

TEST(ServiceTelemetryTest, SnapshotReflectsPipelineActivity) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const StateSpace states(*grid_owner);
  const auto traces = MakeWorkload(57, 60);

  auto service = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DriveRounds(service.value()->session(), traces, 0, kHorizon);

  const TelemetrySnapshot snap = service.value()->telemetry();
  EXPECT_TRUE(snap.enabled);
  EXPECT_FALSE(snap.first_failure.failed);

  const MetricSample* sealed =
      FindMetric(snap, "retrasyn_ingest_rounds_sealed_total");
  ASSERT_NE(sealed, nullptr);
  EXPECT_EQ(sealed->value, static_cast<double>(kHorizon));

  const MetricSample* rounds =
      FindMetric(snap, "retrasyn_engine_rounds_observed_total");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(rounds->value, static_cast<double>(kHorizon));

  const MetricSample* close = FindMetric(snap, "retrasyn_service_close_seconds");
  ASSERT_NE(close, nullptr);
  EXPECT_EQ(close->kind, MetricKind::kHistogram);
  EXPECT_EQ(close->histogram.count, static_cast<uint64_t>(kHorizon));
  EXPECT_GT(close->histogram.sum_seconds, 0.0);

  const MetricSample* live = FindMetric(snap, "retrasyn_synthesis_live_streams");
  ASSERT_NE(live, nullptr);
  EXPECT_EQ(live->value,
            static_cast<double>(service.value()->session().num_active_users()));

  // Every closed round has a lifecycle trace with the service-side phases.
  ASSERT_EQ(snap.recent_rounds.size(), static_cast<size_t>(kHorizon));
  EXPECT_EQ(snap.recent_rounds.front().round, 0);
  EXPECT_EQ(snap.recent_rounds.back().round, kHorizon - 1);
  for (const RoundSpanSnapshot& round : snap.recent_rounds) {
    EXPECT_GT(
        round.phase_seconds[static_cast<size_t>(RoundPhase::kClose)], 0.0)
        << "round " << round.round;
  }

  // The same snapshot renders to a scrapeable exposition.
  const std::string text = PrometheusText(snap);
  EXPECT_NE(text.find("# TYPE retrasyn_ingest_rounds_sealed_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("retrasyn_service_close_seconds_bucket"),
            std::string::npos);
  EXPECT_NE(text.find("retrasyn_round_trace_last_round 19"),
            std::string::npos);
}

TEST(ServiceTelemetryTest, DisabledSnapshotIsEmpty) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const StateSpace states(*grid_owner);
  const auto traces = MakeWorkload(59, 40);

  RetraSynConfig config = BaseConfig();
  config.enable_telemetry = false;
  config.ingest_shards = 2;
  auto service = TrajectoryService::Create(states, config);
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  DriveRounds(service.value()->session(), traces, 0, kHorizon);

  const TelemetrySnapshot snap = service.value()->telemetry();
  EXPECT_FALSE(snap.enabled);
  EXPECT_TRUE(snap.metrics.empty());
  EXPECT_TRUE(snap.recent_rounds.empty());
  EXPECT_FALSE(snap.first_failure.failed);
  EXPECT_EQ(PrometheusText(snap), "");
}

class FailingSink : public ReleaseSink {
 public:
  Status OnRound(const RoundRelease& round) override {
    (void)round;
    return Status::Internal("sink exploded");
  }
};

TEST(ServiceTelemetryTest, InlineSinkFailureRecordsFirstFailure) {
  const BoundingBox box{0.0, 0.0, 400.0, 400.0};
  const auto grid_owner = MakeEnvGrid(box, 4);
  const StateSpace states(*grid_owner);

  auto service = TrajectoryService::Create(states, BaseConfig());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  FailingSink sink;
  service.value()->AddSink(&sink);

  IngestSession& session = service.value()->session();
  ASSERT_TRUE(session.Enter(1, Point{10, 10}).ok());
  // The failing delivery poisons the pipeline: the round stays committed and
  // the error surfaces, sticky, on the next Tick.
  (void)session.Tick();
  EXPECT_FALSE(session.Tick().ok());

  const FirstFailure failure = service.value()->telemetry().first_failure;
  EXPECT_TRUE(failure.failed);
  EXPECT_EQ(failure.component, "inline_delivery");
  EXPECT_EQ(failure.code, StatusCode::kInternal);
  EXPECT_EQ(failure.round, 0);
  EXPECT_NE(failure.message.find("sink exploded"), std::string::npos);
}

}  // namespace
}  // namespace retrasyn
