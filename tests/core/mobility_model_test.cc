#include "core/mobility_model.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/grid.h"

namespace retrasyn {
namespace {

// All tests use a 2x2 grid: 4 cells, all mutually adjacent, so each cell has
// 4 movement states; |S| = 16 + 4 + 4 = 24.
class MobilityModelTest : public testing::Test {
 protected:
  MobilityModelTest()
      : grid_(BoundingBox{0.0, 0.0, 1.0, 1.0}, 2), states_(grid_) {}

  std::vector<double> ZeroFreqs() const {
    return std::vector<double>(states_.size(), 0.0);
  }

  UniformGrid grid_;
  StateSpace states_;
};

TEST_F(MobilityModelTest, StartsUninitializedAndZero) {
  GlobalMobilityModel model(states_);
  EXPECT_FALSE(model.initialized());
  for (StateId s = 0; s < states_.size(); ++s) {
    EXPECT_DOUBLE_EQ(model.frequency(s), 0.0);
  }
}

TEST_F(MobilityModelTest, ReplaceAllClampsNegatives) {
  GlobalMobilityModel model(states_);
  std::vector<double> f = ZeroFreqs();
  f[0] = 0.5;
  f[1] = -0.3;
  model.ReplaceAll(f);
  EXPECT_TRUE(model.initialized());
  EXPECT_DOUBLE_EQ(model.frequency(0), 0.5);
  EXPECT_DOUBLE_EQ(model.frequency(1), 0.0);
}

TEST_F(MobilityModelTest, SelectiveUpdateLeavesOthersUntouched) {
  GlobalMobilityModel model(states_);
  std::vector<double> f = ZeroFreqs();
  f[2] = 0.2;
  f[3] = 0.4;
  model.ReplaceAll(f);

  std::vector<double> fresh = ZeroFreqs();
  fresh[2] = 0.9;
  fresh[3] = 0.1;
  model.UpdateStates({2}, fresh);
  EXPECT_DOUBLE_EQ(model.frequency(2), 0.9);
  EXPECT_DOUBLE_EQ(model.frequency(3), 0.4);  // untouched
}

TEST_F(MobilityModelTest, MoveAndQuitDistributionMatchesEquation6) {
  GlobalMobilityModel model(states_);
  std::vector<double> f = ZeroFreqs();
  // Out of cell 0: moves to neighbors {0,1,2,3} with f = .1/.2/.3/0 and
  // quit mass f_0Q = 0.4. Denominator = 0.1+0.2+0.3+0+0.4 = 1.0.
  const auto& nbrs = grid_.Neighbors(0);
  ASSERT_EQ(nbrs.size(), 4u);
  f[states_.MoveIndex(0, 0)] = 0.1;
  f[states_.MoveIndex(0, 1)] = 0.2;
  f[states_.MoveIndex(0, 2)] = 0.3;
  f[states_.MoveIndex(0, 3)] = 0.0;
  f[states_.QuitIndex(0)] = 0.4;
  model.ReplaceAll(f);

  const auto dist = model.MoveAndQuitDistribution(0);
  ASSERT_EQ(dist.size(), 5u);  // 4 neighbors + quit
  EXPECT_NEAR(dist[0], 0.1, 1e-12);
  EXPECT_NEAR(dist[1], 0.2, 1e-12);
  EXPECT_NEAR(dist[2], 0.3, 1e-12);
  EXPECT_NEAR(dist[3], 0.0, 1e-12);
  EXPECT_NEAR(dist[4], 0.4, 1e-12);
  EXPECT_NEAR(model.QuitProbability(0), 0.4, 1e-12);
}

TEST_F(MobilityModelTest, QuitTermEntersMovementDenominator) {
  // Paper's authenticity modification: Pr(m_ij) denominators include f_iQ.
  GlobalMobilityModel model(states_);
  std::vector<double> f = ZeroFreqs();
  f[states_.MoveIndex(1, 1)] = 0.3;
  f[states_.QuitIndex(1)] = 0.1;
  model.ReplaceAll(f);
  const auto dist = model.MoveAndQuitDistribution(1);
  // Pr(m_11) = 0.3 / (0.3 + 0.1) = 0.75
  double sum = 0.0;
  for (double d : dist) sum += d;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(model.QuitProbability(1), 0.25, 1e-12);
}

TEST_F(MobilityModelTest, ZeroMassCellYieldsZeroDistribution) {
  GlobalMobilityModel model(states_);
  model.ReplaceAll(ZeroFreqs());
  const auto dist = model.MoveAndQuitDistribution(2);
  for (double d : dist) EXPECT_DOUBLE_EQ(d, 0.0);
  EXPECT_DOUBLE_EQ(model.QuitProbability(2), 0.0);
}

TEST_F(MobilityModelTest, EnterDistributionNormalizes) {
  GlobalMobilityModel model(states_);
  std::vector<double> f = ZeroFreqs();
  f[states_.EnterIndex(0)] = 0.3;
  f[states_.EnterIndex(1)] = 0.1;
  f[states_.EnterIndex(3)] = -0.5;  // clamped away
  model.ReplaceAll(f);
  const auto enter = model.EnterDistribution();
  ASSERT_EQ(enter.size(), 4u);
  EXPECT_NEAR(enter[0], 0.75, 1e-12);
  EXPECT_NEAR(enter[1], 0.25, 1e-12);
  EXPECT_DOUBLE_EQ(enter[2], 0.0);
  EXPECT_DOUBLE_EQ(enter[3], 0.0);
}

TEST_F(MobilityModelTest, QuitDistributionNormalizes) {
  GlobalMobilityModel model(states_);
  std::vector<double> f = ZeroFreqs();
  f[states_.QuitIndex(2)] = 0.2;
  f[states_.QuitIndex(3)] = 0.6;
  model.ReplaceAll(f);
  const auto quit = model.QuitDistribution();
  EXPECT_NEAR(quit[2], 0.25, 1e-12);
  EXPECT_NEAR(quit[3], 0.75, 1e-12);
}

TEST_F(MobilityModelTest, DistributionsSumToOneUnderRandomMass) {
  GlobalMobilityModel model(states_);
  Rng rng(3);
  std::vector<double> f(states_.size());
  for (double& x : f) x = rng.UniformDouble();
  model.ReplaceAll(f);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    const auto dist = model.MoveAndQuitDistribution(c);
    double sum = 0.0;
    for (double d : dist) {
      EXPECT_GE(d, 0.0);
      sum += d;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

}  // namespace
}  // namespace retrasyn
