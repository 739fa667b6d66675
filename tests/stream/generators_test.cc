#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "geo/grid.h"
#include "stream/hotspot_generator.h"
#include "stream/network_generator.h"
#include "stream/random_walk_generator.h"
#include "stream/road_network.h"

namespace retrasyn {
namespace {

TEST(RoadNetworkTest, GeneratedNetworkIsConnected) {
  Rng rng(1);
  RoadNetworkConfig config;
  config.grid_dim = 10;
  config.edge_keep_prob = 0.7;  // aggressive pruning, must still connect
  const RoadNetwork net = RoadNetwork::Generate(config, rng);
  EXPECT_TRUE(net.IsConnected());
  EXPECT_EQ(net.num_nodes(), 100u);
  EXPECT_GT(net.num_edges(), 0u);
}

TEST(RoadNetworkTest, NodesInsideBox) {
  Rng rng(2);
  RoadNetworkConfig config;
  config.grid_dim = 8;
  const RoadNetwork net = RoadNetwork::Generate(config, rng);
  for (uint32_t v = 0; v < net.num_nodes(); ++v) {
    EXPECT_TRUE(config.box.Contains(net.NodePosition(v)));
  }
}

TEST(RoadNetworkTest, EdgesHaveValidSpeedAndLength) {
  Rng rng(3);
  RoadNetworkConfig config;
  const RoadNetwork net = RoadNetwork::Generate(config, rng);
  for (uint32_t v = 0; v < net.num_nodes(); ++v) {
    for (const auto& e : net.EdgesFrom(v)) {
      EXPECT_LT(e.to, net.num_nodes());
      EXPECT_GT(e.length, 0.0);
      EXPECT_TRUE(std::find(config.speed_classes.begin(),
                            config.speed_classes.end(),
                            e.speed) != config.speed_classes.end());
    }
  }
}

TEST(RoadNetworkTest, ShortestPathEndsCorrectAndUsesEdges) {
  Rng rng(4);
  RoadNetworkConfig config;
  config.grid_dim = 9;
  const RoadNetwork net = RoadNetwork::Generate(config, rng);
  Rng pick(5);
  for (int trial = 0; trial < 30; ++trial) {
    const uint32_t src =
        static_cast<uint32_t>(pick.UniformInt(uint64_t{net.num_nodes()}));
    const uint32_t dst =
        static_cast<uint32_t>(pick.UniformInt(uint64_t{net.num_nodes()}));
    const auto path = net.ShortestPath(src, dst);
    ASSERT_FALSE(path.empty());
    EXPECT_EQ(path.front(), src);
    EXPECT_EQ(path.back(), dst);
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      bool edge_exists = false;
      for (const auto& e : net.EdgesFrom(path[i])) {
        if (e.to == path[i + 1]) edge_exists = true;
      }
      EXPECT_TRUE(edge_exists) << "hop " << i;
    }
  }
}

TEST(RoadNetworkTest, ShortestPathToSelf) {
  Rng rng(6);
  const RoadNetwork net = RoadNetwork::Generate(RoadNetworkConfig{}, rng);
  const auto path = net.ShortestPath(5, 5);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 5u);
}

TEST(NetworkGeneratorTest, PopulationSchedule) {
  Rng rng(7);
  NetworkGeneratorConfig config;
  config.num_timestamps = 30;
  config.initial_objects = 100;
  config.arrivals_per_timestamp = 10;
  config.network.grid_dim = 6;
  const StreamDatabase db = GenerateNetworkStreams(config, rng);
  // Total streams = initial + arrivals at each of t = 1..29.
  EXPECT_EQ(db.streams().size(), 100u + 29u * 10u);
  // Everyone entering at t=0 is active there.
  EXPECT_EQ(db.ActiveCount(0), 100u);
  size_t entered_at_0 = 0;
  for (const auto& s : db.streams()) {
    EXPECT_GE(s.enter_time, 0);
    EXPECT_LE(s.end_time(), config.num_timestamps);
    EXPECT_TRUE(config.network.box.Contains(s.points.front()));
    if (s.enter_time == 0) ++entered_at_0;
  }
  EXPECT_EQ(entered_at_0, 100u);
}

TEST(NetworkGeneratorTest, QuittingBoundsLifetimes) {
  Rng rng(8);
  NetworkGeneratorConfig config;
  config.num_timestamps = 200;
  config.initial_objects = 500;
  config.arrivals_per_timestamp = 0;
  config.quit_probability = 0.10;
  config.trip_chain_probability = 1.0;  // never quit by arrival
  config.network.grid_dim = 6;
  const StreamDatabase db = GenerateNetworkStreams(config, rng);
  // Mean lifetime should be near 1/0.10 = 10 reports.
  EXPECT_NEAR(db.AverageLength(), 10.0, 2.0);
}

TEST(NetworkGeneratorTest, MovementRespectsSpeedBound) {
  Rng rng(9);
  NetworkGeneratorConfig config;
  config.num_timestamps = 50;
  config.initial_objects = 100;
  config.arrivals_per_timestamp = 5;
  const StreamDatabase db = GenerateNetworkStreams(config, rng);
  const double max_speed = *std::max_element(
      config.network.speed_classes.begin(), config.network.speed_classes.end());
  const double max_step = max_speed * config.timestamp_interval_seconds;
  for (const auto& s : db.streams()) {
    for (size_t i = 1; i < s.points.size(); ++i) {
      // Straight-line displacement can't exceed along-network distance.
      EXPECT_LE(EuclideanDistance(s.points[i - 1], s.points[i]),
                max_step + 1e-6);
    }
  }
}

TEST(HotspotGeneratorTest, HorizonAndBoxRespected) {
  Rng rng(10);
  HotspotGeneratorConfig config;
  config.num_timestamps = 100;
  config.initial_users = 200;
  config.mean_arrivals = 20.0;
  const StreamDatabase db = GenerateHotspotStreams(config, rng);
  EXPECT_EQ(db.num_timestamps(), 100);
  EXPECT_EQ(db.ActiveCount(0), 200u);
  for (const auto& s : db.streams()) {
    EXPECT_LE(s.end_time(), 100);
    for (const auto& p : s.points) {
      EXPECT_TRUE(config.box.Contains(p));
    }
  }
}

TEST(HotspotGeneratorTest, AverageLengthTracksQuitProbability) {
  Rng rng(11);
  HotspotGeneratorConfig config;
  config.num_timestamps = 400;
  config.initial_users = 1500;
  config.mean_arrivals = 0.0;
  config.quit_probability = 1.0 / 13.61;  // paper's average length
  const StreamDatabase db = GenerateHotspotStreams(config, rng);
  EXPECT_NEAR(db.AverageLength(), 13.61, 2.0);
}

TEST(HotspotGeneratorTest, SpatialSkewExists) {
  // Hotspot data must be far from uniform: the busiest of 36 cells should
  // hold well over the uniform share of points.
  Rng rng(12);
  HotspotGeneratorConfig config;
  config.num_timestamps = 80;
  config.initial_users = 500;
  config.mean_arrivals = 30.0;
  const StreamDatabase db = GenerateHotspotStreams(config, rng);
  const UniformGrid grid(config.box, 6);
  std::vector<uint64_t> counts(grid.NumCells(), 0);
  uint64_t total = 0;
  for (const auto& s : db.streams()) {
    for (const auto& p : s.points) {
      ++counts[grid.Locate(p)];
      ++total;
    }
  }
  const uint64_t max_count = *std::max_element(counts.begin(), counts.end());
  EXPECT_GT(max_count * 36, total * 2);  // > 2x uniform share
}

TEST(RandomWalkGeneratorTest, BasicValidity) {
  Rng rng(13);
  RandomWalkConfig config;
  config.num_timestamps = 60;
  config.initial_users = 100;
  const StreamDatabase db = GenerateRandomWalkStreams(config, rng);
  EXPECT_GT(db.streams().size(), 100u);  // initial + arrivals
  for (const auto& s : db.streams()) {
    EXPECT_FALSE(s.points.empty());
    EXPECT_LE(s.end_time(), 60);
  }
}

TEST(GeneratorDeterminismTest, SameSeedSameData) {
  RandomWalkConfig config;
  config.num_timestamps = 30;
  Rng a(99), b(99);
  const StreamDatabase da = GenerateRandomWalkStreams(config, a);
  const StreamDatabase db = GenerateRandomWalkStreams(config, b);
  ASSERT_EQ(da.streams().size(), db.streams().size());
  EXPECT_EQ(da.TotalPoints(), db.TotalPoints());
  for (size_t i = 0; i < da.streams().size(); ++i) {
    EXPECT_EQ(da.streams()[i].enter_time, db.streams()[i].enter_time);
    ASSERT_EQ(da.streams()[i].points.size(), db.streams()[i].points.size());
    EXPECT_EQ(da.streams()[i].points[0], db.streams()[i].points[0]);
  }
}

}  // namespace
}  // namespace retrasyn
