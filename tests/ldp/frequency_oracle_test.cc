#include "ldp/frequency_oracle.h"

#include <cmath>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace retrasyn {
namespace {

TEST(OueParamsTest, FlipProbability) {
  OueParams params{1.0, 10};
  EXPECT_NEAR(params.q(), 1.0 / (std::exp(1.0) + 1.0), 1e-12);
  EXPECT_DOUBLE_EQ(OueParams::p(), 0.5);
}

TEST(OueVarianceTest, MatchesEquation3) {
  // Var = 4 e^eps / (n (e^eps - 1)^2)
  const double eps = 1.0;
  const uint64_t n = 1000;
  const double e = std::exp(eps);
  EXPECT_NEAR(OueFrequencyVariance(eps, n), 4.0 * e / (n * (e - 1) * (e - 1)),
              1e-12);
}

TEST(OueVarianceTest, DecreasesInEpsilonAndN) {
  EXPECT_GT(OueFrequencyVariance(0.5, 100), OueFrequencyVariance(1.0, 100));
  EXPECT_GT(OueFrequencyVariance(1.0, 100), OueFrequencyVariance(1.0, 1000));
  EXPECT_TRUE(std::isinf(OueFrequencyVariance(1.0, 0)));
}

TEST(OueClientTest, PerturbedVectorHasCorrectLength) {
  Rng rng(1);
  OueClient client(1.0, 16);
  const auto bits = client.Perturb(3, rng);
  EXPECT_EQ(bits.size(), 16u);
}

TEST(OueClientTest, SatisfiesLdpBitProbabilities) {
  // The defining randomization: P[bit=1 | true] = 1/2,
  // P[bit=1 | false] = 1/(e^eps + 1).
  Rng rng(2);
  const double eps = 1.0;
  OueClient client(eps, 8);
  const int trials = 30000;
  int true_ones = 0;
  std::vector<int> false_ones(8, 0);
  for (int i = 0; i < trials; ++i) {
    const auto bits = client.Perturb(5, rng);
    true_ones += bits[5];
    for (int j = 0; j < 8; ++j) {
      if (j != 5) false_ones[j] += bits[j];
    }
  }
  EXPECT_NEAR(true_ones / static_cast<double>(trials), 0.5, 0.01);
  const double q = 1.0 / (std::exp(eps) + 1.0);
  for (int j = 0; j < 8; ++j) {
    if (j == 5) continue;
    EXPECT_NEAR(false_ones[j] / static_cast<double>(trials), q, 0.012);
  }
}

TEST(OueClientTest, SparseAndDenseAgreeInDistribution) {
  Rng rng_dense(3), rng_sparse(4);
  const double eps = 1.5;
  const uint32_t d = 12;
  OueClient client(eps, d);
  const int trials = 20000;
  std::vector<double> dense_ones(d, 0.0), sparse_ones(d, 0.0);
  for (int i = 0; i < trials; ++i) {
    const auto bits = client.Perturb(7, rng_dense);
    for (uint32_t j = 0; j < d; ++j) dense_ones[j] += bits[j];
    for (uint32_t j : client.PerturbSparse(7, rng_sparse)) {
      ASSERT_LT(j, d);
      sparse_ones[j] += 1.0;
    }
  }
  for (uint32_t j = 0; j < d; ++j) {
    EXPECT_NEAR(dense_ones[j] / trials, sparse_ones[j] / trials, 0.015)
        << "position " << j;
  }
}

TEST(OueAggregatorTest, UnbiasedFrequencyEstimation) {
  // 60/30/10 split over 3 values, many users: estimates converge.
  Rng rng(5);
  const double eps = 1.0;
  const uint32_t d = 3;
  OueClient client(eps, d);
  OueAggregator agg(eps, d);
  const int n = 60000;
  for (int i = 0; i < n; ++i) {
    const uint32_t value = i < n * 6 / 10 ? 0 : (i < n * 9 / 10 ? 1 : 2);
    agg.AddReport(client.Perturb(value, rng));
  }
  const auto freqs = agg.EstimateFrequencies();
  EXPECT_EQ(agg.num_reports(), static_cast<uint64_t>(n));
  EXPECT_NEAR(freqs[0], 0.6, 0.02);
  EXPECT_NEAR(freqs[1], 0.3, 0.02);
  EXPECT_NEAR(freqs[2], 0.1, 0.02);
}

TEST(OueAggregatorTest, EstimateVarianceMatchesEquation3) {
  // Empirical variance of the estimator for a zero-frequency position should
  // match the paper's worst-case formula closely.
  const double eps = 1.0;
  const uint32_t d = 4;
  const int n = 400;
  const int runs = 3000;
  Rng rng(6);
  OueClient client(eps, d);
  double sum = 0.0, sum_sq = 0.0;
  for (int r = 0; r < runs; ++r) {
    OueAggregator agg(eps, d);
    for (int i = 0; i < n; ++i) {
      agg.AddReport(client.Perturb(0, rng));  // position 3 never true
    }
    const double f3 = agg.EstimateFrequencies()[3];
    sum += f3;
    sum_sq += f3 * f3;
  }
  const double mean = sum / runs;
  const double var = sum_sq / runs - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(var, OueFrequencyVariance(eps, n),
              0.15 * OueFrequencyVariance(eps, n));
}

TEST(OueAggregatorTest, CountsAreFrequenciesTimesN) {
  Rng rng(7);
  OueClient client(1.0, 5);
  OueAggregator agg(1.0, 5);
  for (int i = 0; i < 100; ++i) agg.AddReport(client.Perturb(2, rng));
  const auto freqs = agg.EstimateFrequencies();
  const auto counts = agg.EstimateCounts();
  for (size_t i = 0; i < freqs.size(); ++i) {
    EXPECT_NEAR(counts[i], freqs[i] * 100.0, 1e-9);
  }
}

TEST(OueAggregatorTest, EmptyAggregatorReturnsZeros) {
  OueAggregator agg(1.0, 4);
  const auto freqs = agg.EstimateFrequencies();
  for (double f : freqs) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(GrrTest, KeepProbability) {
  GrrClient client(1.0, 10);
  const double e = std::exp(1.0);
  EXPECT_NEAR(client.keep_probability(), e / (e + 9.0), 1e-12);
}

TEST(GrrTest, PerturbStaysInDomain) {
  Rng rng(9);
  GrrClient client(0.5, 4);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(client.Perturb(i % 4, rng), 4u);
  }
}

TEST(PostprocessTest, ClipRemovesNegatives) {
  std::vector<double> f{0.5, -0.2, 0.7, -0.01};
  ApplyPostprocess(Postprocess::kClip, f);
  EXPECT_DOUBLE_EQ(f[0], 0.5);
  EXPECT_DOUBLE_EQ(f[1], 0.0);
  EXPECT_DOUBLE_EQ(f[2], 0.7);
  EXPECT_DOUBLE_EQ(f[3], 0.0);
}

TEST(PostprocessTest, NoneIsIdentity) {
  std::vector<double> f{0.5, -0.2};
  const std::vector<double> orig = f;
  ApplyPostprocess(Postprocess::kNone, f);
  EXPECT_EQ(f, orig);
}

TEST(PostprocessTest, NormSubProducesDistribution) {
  std::vector<double> f{0.6, -0.3, 0.5, 0.4, -0.1};
  ApplyPostprocess(Postprocess::kNormSub, f, 1.0);
  double sum = 0.0;
  for (double x : f) {
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(PostprocessTest, NormSubPreservesOrdering) {
  std::vector<double> f{0.9, 0.4, -0.5, 0.2};
  ApplyPostprocess(Postprocess::kNormSub, f, 1.0);
  EXPECT_GE(f[0], f[1]);
  EXPECT_GE(f[1], f[3]);
  EXPECT_DOUBLE_EQ(f[2], 0.0);
}

}  // namespace
}  // namespace retrasyn
