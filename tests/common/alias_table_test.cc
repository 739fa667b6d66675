// Alias-table correctness: the O(1) sampler must draw from exactly the same
// distribution as the linear Rng::Discrete scan it replaces in the synthesis
// hot path, and keep its zero-mass / negative-weight contract.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alias_table.h"
#include "common/rng.h"

namespace retrasyn {
namespace {

/// Chi-square statistic of observed counts against the exact proportions of
/// \p weights (negatives count as zero); returns the degrees of freedom via
/// \p dof_out.
double ChiSquare(const std::vector<int>& counts,
                 const std::vector<double>& weights, int n, int* dof_out) {
  double total = 0.0;
  for (double w : weights) {
    if (w > 0.0) total += w;
  }
  double chi2 = 0.0;
  int dof = -1;
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i] > 0.0 ? weights[i] : 0.0;
    const double expected = n * w / total;
    if (expected == 0.0) {
      EXPECT_EQ(counts[i], 0) << "index " << i << " has zero mass";
      continue;
    }
    chi2 += (counts[i] - expected) * (counts[i] - expected) / expected;
    ++dof;
  }
  *dof_out = dof;
  return chi2;
}

TEST(AliasTableTest, EmptyAndZeroMass) {
  AliasTable table;
  EXPECT_FALSE(table.has_mass());
  EXPECT_EQ(table.size(), 0u);

  table.Build(std::vector<double>{});
  EXPECT_FALSE(table.has_mass());

  table.Build({0.0, 0.0, 0.0});
  EXPECT_FALSE(table.has_mass());
  EXPECT_EQ(table.size(), 3u);

  table.Build({-1.0, -2.5});
  EXPECT_FALSE(table.has_mass());
  EXPECT_DOUBLE_EQ(table.total_mass(), 0.0);
}

TEST(AliasTableTest, SingleAndDegenerateColumns) {
  AliasTable table;
  table.Build({4.2});
  ASSERT_TRUE(table.has_mass());
  Rng rng(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(table.Sample(rng), 0u);

  // All mass on one column among zeros.
  table.Build({0.0, 0.0, 9.0, 0.0});
  ASSERT_TRUE(table.has_mass());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(rng), 2u);
}

TEST(AliasTableTest, NegativeWeightsActAsZero) {
  AliasTable table;
  table.Build({-5.0, 1.0, -2.0, 3.0});
  ASSERT_TRUE(table.has_mass());
  EXPECT_DOUBLE_EQ(table.total_mass(), 4.0);
  Rng rng(5);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < 40000; ++i) ++counts[table.Sample(rng)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[1] / 40000.0, 0.25, 0.01);
  EXPECT_NEAR(counts[3] / 40000.0, 0.75, 0.01);
}

TEST(AliasTableTest, MatchesLinearDiscreteDistribution) {
  // The satellite acceptance check: chi-square goodness of fit of alias
  // sampling against the exact weights Rng::Discrete draws from, on several
  // shapes (uniform, skewed, sparse, random).
  Rng weight_rng(7);
  std::vector<std::vector<double>> cases;
  cases.push_back(std::vector<double>(9, 1.0));            // uniform degree-9
  cases.push_back({100.0, 1.0, 1.0, 1.0, 0.0, 0.5});       // heavy head
  std::vector<double> sparse(64, 0.0);
  sparse[3] = 1.0;
  sparse[31] = 2.0;
  sparse[63] = 5.0;
  cases.push_back(sparse);
  std::vector<double> random(256);
  for (double& w : random) w = weight_rng.UniformDouble();
  cases.push_back(random);

  // 99.9th-percentile chi-square critical values by dof, indexed sparsely.
  auto critical = [](int dof) {
    if (dof <= 10) return 29.6;
    if (dof <= 64) return 110.0;
    return 320.0;  // dof ~255
  };
  const int n = 300000;
  for (size_t k = 0; k < cases.size(); ++k) {
    AliasTable table;
    table.Build(cases[k]);
    ASSERT_TRUE(table.has_mass());
    Rng rng(100 + static_cast<uint64_t>(k));
    std::vector<int> counts(cases[k].size(), 0);
    for (int i = 0; i < n; ++i) {
      const size_t s = table.Sample(rng);
      ASSERT_LT(s, cases[k].size());
      ++counts[s];
    }
    int dof = 0;
    const double chi2 = ChiSquare(counts, cases[k], n, &dof);
    EXPECT_LT(chi2, critical(dof)) << "case " << k << " dof " << dof;
  }
}

TEST(AliasTableTest, RebuildReusesAndReplacesDistribution) {
  AliasTable table;
  table.Build({1.0, 1.0, 1.0, 1.0});
  Rng rng(11);
  for (int i = 0; i < 100; ++i) ASSERT_LT(table.Sample(rng), 4u);

  // Rebuild with a different size and shape in place.
  table.Build({0.0, 10.0});
  ASSERT_EQ(table.size(), 2u);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(table.Sample(rng), 1u);

  // Back to zero mass.
  table.Build({0.0});
  EXPECT_FALSE(table.has_mass());
}

TEST(AliasTableTest, SampleConsumesExactlyOneDraw) {
  // The synthesis determinism contract counts RNG draws per point; alias
  // sampling must consume exactly one.
  AliasTable table;
  table.Build({1.0, 2.0, 3.0});
  Rng a(13), b(13);
  for (int i = 0; i < 50; ++i) {
    (void)table.Sample(a);
    (void)b();
  }
  EXPECT_EQ(a(), b());
}

TEST(AliasTableTest, SliceMatchesClassDrawForDraw) {
  // The class owns one slice and calls the slice routines, so a slice built
  // into shared flat arrays (as the sampler cache does, many per array, one
  // set of worklists) must reproduce the class draw for draw.
  const std::vector<std::vector<double>> cases = {
      {4.2},                                          // n = 1
      {0.0, 0.0, 0.0},                                // all-zero weights
      {-1.0, 2.0, -0.5, 3.0},                         // negative weights
      {0.3, 0.0, 1.7},                                // degree 3
      {1.0, 5.0, 0.25, 0.0, 2.0},                     // degree 5
      {0.1, 0.9, 0.4, 0.0, 0.0, 3.0, 0.2, 0.6, 1.1},  // degree 9
  };
  size_t total_columns = 0;
  for (const auto& w : cases) total_columns += w.size();
  // Poisoned flat arrays: every column must be written by BuildSlice.
  std::vector<double> prob(total_columns + 2, -7.0);
  std::vector<uint32_t> alias(total_columns + 2, 12345u);
  AliasTable::Worklists work;
  size_t offset = 1;
  for (size_t k = 0; k < cases.size(); ++k) {
    const std::vector<double>& w = cases[k];
    AliasTable table;
    table.Build(w);
    const double total = AliasTable::BuildSlice(
        w.data(), w.size(), prob.data() + offset, alias.data() + offset, work);
    EXPECT_EQ(total, table.total_mass()) << "case " << k;
    EXPECT_EQ(total > 0.0, table.has_mass()) << "case " << k;
    for (size_t i = 0; i < w.size(); ++i) {
      EXPECT_GE(prob[offset + i], 0.0) << "case " << k;
      EXPECT_LE(prob[offset + i], 1.0) << "case " << k;
      EXPECT_LT(alias[offset + i], w.size()) << "case " << k;
    }
    if (table.has_mass()) {
      Rng a(100 + k), b(100 + k);
      for (int i = 0; i < 2000; ++i) {
        const size_t from_slice = AliasTable::SampleSlice(
            prob.data() + offset, alias.data() + offset, w.size(), b);
        ASSERT_EQ(table.Sample(a), from_slice) << "case " << k << " draw " << i;
        ASSERT_GT(w[from_slice], 0.0) << "case " << k;
      }
      EXPECT_EQ(a(), b());
    }
    offset += w.size();
  }
  // Neighbouring slices never write outside their own range.
  EXPECT_EQ(prob.front(), -7.0);
  EXPECT_EQ(prob.back(), -7.0);
  EXPECT_EQ(alias.front(), 12345u);
  EXPECT_EQ(alias.back(), 12345u);
}

}  // namespace
}  // namespace retrasyn
