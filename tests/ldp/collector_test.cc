#include "ldp/aggregate.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "ldp/frequency_oracle.h"
#include "testing/chi_square.h"

namespace retrasyn {
namespace {

std::vector<StateId> MakeStates(uint32_t domain, size_t n) {
  // Skewed workload: ~half the mass on state 0, the rest round-robin.
  std::vector<StateId> states;
  states.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    states.push_back(i % 2 == 0 ? 0 : static_cast<StateId>(1 + i % (domain - 1)));
  }
  return states;
}

TEST(CollectorTest, EmptyInputYieldsNoReports) {
  TransitionCollector collector(10, CollectionMode::kPerUser);
  Rng rng(1);
  const CollectionResult result = collector.Collect({}, 1.0, rng);
  EXPECT_EQ(result.num_reports, 0u);
  EXPECT_TRUE(result.frequencies.empty());
}

TEST(CollectorTest, ZeroEpsilonYieldsNoReports) {
  TransitionCollector collector(10, CollectionMode::kAggregateSim);
  Rng rng(2);
  const CollectionResult result = collector.Collect({1, 2, 3}, 0.0, rng);
  EXPECT_EQ(result.num_reports, 0u);
  EXPECT_TRUE(result.frequencies.empty());
}

class CollectorModeTest : public testing::TestWithParam<CollectionMode> {};

TEST_P(CollectorModeTest, UnbiasedEstimates) {
  const uint32_t domain = 20;
  const size_t n = 20000;
  TransitionCollector collector(domain, GetParam());
  Rng rng(3);
  const std::vector<StateId> states = MakeStates(domain, n);
  const CollectionResult result = collector.Collect(states, 1.0, rng);
  ASSERT_EQ(result.num_reports, n);
  ASSERT_EQ(result.frequencies.size(), domain);
  // True frequency of state 0 is 1/2.
  EXPECT_NEAR(result.frequencies[0], 0.5, 0.03);
  double total = 0.0;
  for (double f : result.frequencies) total += f;
  EXPECT_NEAR(total, 1.0, 0.15);
}

TEST_P(CollectorModeTest, EpsilonRecordedInResult) {
  TransitionCollector collector(8, GetParam());
  Rng rng(4);
  const CollectionResult result = collector.Collect({0, 1, 2}, 0.7, rng);
  EXPECT_DOUBLE_EQ(result.epsilon, 0.7);
  EXPECT_EQ(result.num_reports, 3u);
}

INSTANTIATE_TEST_SUITE_P(BothModes, CollectorModeTest,
                         testing::Values(CollectionMode::kPerUser,
                                         CollectionMode::kAggregateSim));

TEST(CollectorEquivalenceTest, ModesAgreeInMeanAndVariance) {
  // The aggregate simulator must match the per-user protocol's estimator
  // distribution. Compare empirical mean and variance of f_hat(0) over many
  // rounds for both modes.
  const uint32_t domain = 10;
  const size_t n = 300;
  const double eps = 1.0;
  const int rounds = 1500;
  std::vector<StateId> states(n, 0);
  for (size_t i = n / 4; i < n; ++i) states[i] = 1 + i % (domain - 1);
  // True f(0) = 1/4.

  auto run = [&](CollectionMode mode, uint64_t seed, double* mean_out,
                 double* var_out) {
    TransitionCollector collector(domain, mode);
    Rng rng(seed);
    double sum = 0.0, sum_sq = 0.0;
    for (int r = 0; r < rounds; ++r) {
      const CollectionResult result = collector.Collect(states, eps, rng);
      const double f = result.frequencies[0];
      sum += f;
      sum_sq += f * f;
    }
    *mean_out = sum / rounds;
    *var_out = sum_sq / rounds - (sum / rounds) * (sum / rounds);
  };

  double mean_user, var_user, mean_sim, var_sim;
  run(CollectionMode::kPerUser, 10, &mean_user, &var_user);
  run(CollectionMode::kAggregateSim, 11, &mean_sim, &var_sim);

  EXPECT_NEAR(mean_user, 0.25, 0.01);
  EXPECT_NEAR(mean_sim, 0.25, 0.01);
  EXPECT_NEAR(mean_user, mean_sim, 0.01);
  // Variances within 15% of each other.
  EXPECT_NEAR(var_user, var_sim, 0.15 * std::max(var_user, var_sim));
}

TEST(CollectorTest, AggregateSimOneCountsMatchTheExactConvolution) {
  // A state with true count c among n reporters gets Binomial(c, 1/2) +
  // Binomial(n - c, q) one-bits. Read back from the estimates, the one-counts
  // of unreported states and of reported ones (c below, at and above the 64
  // fair bits of one RNG word) must follow the exact convolution pmf.
  const uint64_t n = 200;
  const std::vector<uint64_t> true_counts = {0, 1, 64, 70, 65, 0};
  std::vector<StateId> states;
  for (StateId s = 0; s < true_counts.size(); ++s) {
    states.insert(states.end(), true_counts[s], s);
  }
  ASSERT_EQ(states.size(), n);
  const int rounds = 20000;
  uint64_t seed = 50;
  for (double eps : {0.05, 1.0, 4.0}) {
    const double q = OueParams{eps, 1}.q();
    TransitionCollector collector(static_cast<uint32_t>(true_counts.size()),
                                  CollectionMode::kAggregateSim,
                                  OracleKind::kOue);
    Rng rng(++seed);
    std::vector<std::vector<uint64_t>> ones(
        true_counts.size(), std::vector<uint64_t>(n + 1, 0));
    for (int r = 0; r < rounds; ++r) {
      const CollectionResult result = collector.Collect(states, eps, rng);
      for (size_t s = 0; s < true_counts.size(); ++s) {
        const double count =
            n * (result.frequencies[s] * (OueParams::p() - q) + q);
        const long rounded = std::lround(count);
        ASSERT_NEAR(count, static_cast<double>(rounded), 1e-6);
        ASSERT_GE(rounded, 0);
        ASSERT_LE(rounded, static_cast<long>(n));
        ++ones[s][static_cast<size_t>(rounded)];
      }
    }
    for (size_t s = 0; s < true_counts.size(); ++s) {
      const uint64_t c = true_counts[s];
      const std::vector<double> kept = ExactBinomialPmf(c, OueParams::p());
      const std::vector<double> flipped = ExactBinomialPmf(n - c, q);
      std::vector<double> pmf(n + 1, 0.0);
      for (size_t i = 0; i < kept.size(); ++i) {
        for (size_t j = 0; j < flipped.size(); ++j) {
          pmf[i + j] += kept[i] * flipped[j];
        }
      }
      int dof = 0;
      const double chi2 = PooledChiSquare(ones[s], pmf, &dof);
      ASSERT_GE(dof, 1);
      EXPECT_LT(chi2, ChiSquareCritical(dof, 3.06))
          << "eps " << eps << " state " << s << " c " << c << " dof " << dof;
    }
  }
}

TEST(CollectorTest, TimingsPopulated) {
  TransitionCollector collector(50, CollectionMode::kAggregateSim);
  Rng rng(5);
  CollectTimings timings;
  std::vector<StateId> states(1000, 7);
  collector.Collect(states, 1.0, rng, &timings);
  EXPECT_GE(timings.user_side_seconds, 0.0);
  EXPECT_GE(timings.aggregation_seconds, 0.0);
}

TEST(CollectorTest, DeterministicGivenSeed) {
  TransitionCollector collector(16, CollectionMode::kAggregateSim);
  const std::vector<StateId> states = MakeStates(16, 500);
  Rng a(42), b(42);
  const CollectionResult ra = collector.Collect(states, 1.0, a);
  const CollectionResult rb = collector.Collect(states, 1.0, b);
  EXPECT_EQ(ra.frequencies, rb.frequencies);
}

}  // namespace
}  // namespace retrasyn
