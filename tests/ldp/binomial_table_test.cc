// The O(1) binomial draws of the OUE aggregate simulation: BinomialTable
// (alias window + tail column) and BinomialHalf (popcount of fair bits) are
// checked against the exact pmf, computed independently from lgamma, by
// chi-square at the sampler suites' z = 3.06 critical value.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "ldp/aggregate.h"
#include "ldp/frequency_oracle.h"
#include "testing/chi_square.h"

namespace retrasyn {
namespace {

constexpr double kZ = 3.06;

double Q(double epsilon) { return OueParams{epsilon, 1}.q(); }

/// Chi-square of \p counts against \p weights at z = 3.06; a value with
/// zero weight must never be drawn.
void ExpectMatches(const std::vector<uint64_t>& counts,
                   const std::vector<double>& weights) {
  ASSERT_EQ(counts.size(), weights.size());
  for (size_t k = 0; k < counts.size(); ++k) {
    if (weights[k] == 0.0) {
      EXPECT_EQ(counts[k], 0u) << "value " << k << " has no mass";
    }
  }
  int dof = 0;
  const double chi2 = PooledChiSquare(counts, weights, &dof);
  ASSERT_GE(dof, 1);
  EXPECT_LT(chi2, ChiSquareCritical(dof, kZ)) << "dof " << dof;
}

std::vector<uint64_t> DrawCounts(const BinomialTable& table, uint64_t n,
                                 int draws, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint64_t> counts(n + 1, 0);
  for (int i = 0; i < draws; ++i) {
    const uint64_t x = table.Sample(rng);
    EXPECT_LE(x, n);
    if (x > n) return counts;
    ++counts[x];
  }
  return counts;
}

TEST(BinomialTableTest, DrawsMatchTheExactPmf) {
  // n = 20 is the n <= 32 regime of Rng::Binomial; at eps = 4 (q = 0.018)
  // n = 20 and 200 have np < 8; the rest have np >= 8.
  uint64_t seed = 1;
  for (uint64_t n : {20u, 200u, 5000u}) {
    for (double eps : {0.05, 1.0, 4.0}) {
      const double q = Q(eps);
      SCOPED_TRACE("n " + std::to_string(n) + " eps " + std::to_string(eps));
      BinomialTable table;
      BinomialTable::Scratch scratch;
      table.Build(n, q, scratch);
      ExpectMatches(DrawCounts(table, n, 200000, ++seed),
                    ExactBinomialPmf(n, q));
    }
  }
}

TEST(BinomialTableTest, TailMassIsTheExactMassOutsideTheWindow) {
  // At 12 sigma the tail weighs under 1e-16 of the window (about 1e-32 for
  // a symmetric pmf): summed from its own terms it keeps full relative
  // precision, which 1 - sum could not.
  for (double eps : {0.05, 1.0, 4.0}) {
    const uint64_t n = 5000;
    const double q = Q(eps);
    BinomialTable table;
    BinomialTable::Scratch scratch;
    table.Build(n, q, scratch);
    const std::vector<double> pmf = ExactBinomialPmf(n, q);
    double inside = 0.0;
    double outside = 0.0;
    for (uint64_t k = 0; k <= n; ++k) {
      (k >= table.lo() && k <= table.hi() ? inside : outside) += pmf[k];
    }
    ASSERT_GT(outside, 0.0);
    EXPECT_LT(outside / inside, 1e-16);
    EXPECT_NEAR(table.tail_mass(), outside / inside, 1e-9 * outside / inside)
        << "eps " << eps;
  }
}

TEST(BinomialTableTest, NarrowWindowDrawsTheConditionalTail) {
  // A half-sigma window puts most of the mass in the tail column. Both the
  // whole draw and its tail part must match the exact pmf; the second case
  // has no lower tail (the window starts at 0).
  struct Case {
    uint64_t n;
    double eps;
  };
  uint64_t seed = 100;
  for (const Case& c : {Case{200, 1.0}, Case{20, 4.0}, Case{5000, 0.05}}) {
    SCOPED_TRACE("n " + std::to_string(c.n) + " eps " + std::to_string(c.eps));
    const double q = Q(c.eps);
    BinomialTable table;
    BinomialTable::Scratch scratch;
    table.Build(c.n, q, scratch, /*window_sigmas=*/0.5);
    const std::vector<double> pmf = ExactBinomialPmf(c.n, q);
    double inside = 0.0;
    double outside = 0.0;
    std::vector<double> tail(pmf.size(), 0.0);
    for (uint64_t k = 0; k <= c.n; ++k) {
      if (k >= table.lo() && k <= table.hi()) {
        inside += pmf[k];
      } else {
        outside += pmf[k];
        tail[k] = pmf[k];
      }
    }
    ASSERT_GT(outside, 0.02 * inside);
    EXPECT_NEAR(table.tail_mass(), outside / inside, 1e-9 * outside / inside);

    const std::vector<uint64_t> counts = DrawCounts(table, c.n, 200000, ++seed);
    ExpectMatches(counts, pmf);
    std::vector<uint64_t> tail_counts(counts.size(), 0);
    uint64_t tail_draws = 0;
    for (uint64_t k = 0; k <= c.n; ++k) {
      if (tail[k] > 0.0) tail_counts[k] = counts[k];
      tail_draws += tail_counts[k];
    }
    ASSERT_GT(tail_draws, 5000u);
    ExpectMatches(tail_counts, tail);
  }
}

TEST(BinomialTableTest, WindowCoveringTheDomainHasNoTail) {
  // Small n: mu +- 12 sigma spans all of [0, n], so there is nothing to put
  // in a tail column and every draw lands in the window.
  for (uint64_t n : {0u, 1u, 10u, 32u}) {
    BinomialTable table;
    BinomialTable::Scratch scratch;
    table.Build(n, Q(1.0), scratch);
    EXPECT_EQ(table.lo(), 0u);
    EXPECT_EQ(table.hi(), n);
    EXPECT_EQ(table.tail_mass(), 0.0);
    if (n > 0) {
      ExpectMatches(DrawCounts(table, n, 50000, 7 + n),
                    ExactBinomialPmf(n, Q(1.0)));
    } else {
      Rng rng(7);
      EXPECT_EQ(table.Sample(rng), 0u);
    }
  }
}

TEST(BinomialTableTest, DegenerateProbabilities) {
  BinomialTable::Scratch scratch;
  BinomialTable never;
  never.Build(50, 0.0, scratch);
  BinomialTable always;
  always.Build(50, 1.0, scratch);
  Rng rng(9);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(never.Sample(rng), 0u);
    EXPECT_EQ(always.Sample(rng), 50u);
  }
}

TEST(BinomialHalfTest, IsThePopcountOfFairBits) {
  uint64_t seed = 200;
  for (uint64_t c : {1u, 63u, 64u, 65u, 200u}) {
    SCOPED_TRACE("c " + std::to_string(c));
    Rng rng(++seed);
    std::vector<uint64_t> counts(c + 1, 0);
    for (int i = 0; i < 100000; ++i) {
      const uint64_t x = BinomialHalf(c, rng);
      ASSERT_LE(x, c);
      ++counts[x];
    }
    ExpectMatches(counts, ExactBinomialPmf(c, 0.5));
  }
}

TEST(BinomialHalfTest, DrawsOneRngWordPer64Bits) {
  for (uint64_t c : {0u, 1u, 63u, 64u, 65u, 128u, 200u}) {
    Rng drawn(300);
    Rng words(300);
    BinomialHalf(c, drawn);
    for (uint64_t w = 0; w < (c + 63) / 64; ++w) words();
    EXPECT_EQ(drawn.state(), words.state()) << "c " << c;
  }
}

}  // namespace
}  // namespace retrasyn
