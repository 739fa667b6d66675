// Goodness-of-fit helpers for the sampler tests: the chi-square critical
// value, an exact binomial pmf and a pooled chi-square statistic.

#ifndef RETRASYN_TESTS_TESTING_CHI_SQUARE_H_
#define RETRASYN_TESTS_TESTING_CHI_SQUARE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace retrasyn {

/// Wilson-Hilferty upper critical value of a chi-square with \p dof degrees
/// of freedom, z standard deviations out. At z = 3.06 it reads 26.05 at
/// dof 8, under the tabulated 99.9th percentile of 26.1, and less at lower
/// dof.
inline double ChiSquareCritical(int dof, double z) {
  const double h = 2.0 / (9.0 * dof);
  return dof * std::pow(1.0 - h + z * std::sqrt(h), 3);
}

/// Binomial(n, p) pmf over [0, n] from log-gamma in long double, independent
/// of the samplers under test.
inline std::vector<double> ExactBinomialPmf(uint64_t n, double p) {
  std::vector<double> pmf(n + 1);
  const long double log_p = std::log(static_cast<long double>(p));
  const long double log_q = std::log1p(-static_cast<long double>(p));
  const long double log_n = std::lgamma(static_cast<long double>(n) + 1);
  for (uint64_t k = 0; k <= n; ++k) {
    const long double kd = static_cast<long double>(k);
    const long double rest = static_cast<long double>(n - k);
    pmf[k] = static_cast<double>(std::exp(log_n - std::lgamma(kd + 1) -
                                          std::lgamma(rest + 1) + kd * log_p +
                                          rest * log_q));
  }
  return pmf;
}

/// Chi-square of \p counts (draws per value) against \p weights (any
/// positive scale), pooling adjacent values until each bin expects at least
/// 5 draws (a short last bin joins the one before). Sets \p dof to the bin
/// count minus one.
inline double PooledChiSquare(const std::vector<uint64_t>& counts,
                              const std::vector<double>& weights, int* dof) {
  double total_weight = 0.0;
  double draws = 0.0;
  for (size_t k = 0; k < counts.size(); ++k) {
    total_weight += weights[k];
    draws += static_cast<double>(counts[k]);
  }
  std::vector<double> expected_bins;
  std::vector<double> observed_bins;
  double expected = 0.0;
  double observed = 0.0;
  for (size_t k = 0; k < counts.size(); ++k) {
    expected += draws * weights[k] / total_weight;
    observed += static_cast<double>(counts[k]);
    if (expected >= 5.0) {
      expected_bins.push_back(expected);
      observed_bins.push_back(observed);
      expected = observed = 0.0;
    }
  }
  if (!expected_bins.empty()) {
    expected_bins.back() += expected;
    observed_bins.back() += observed;
  }
  *dof = static_cast<int>(expected_bins.size()) - 1;
  double chi2 = 0.0;
  for (size_t b = 0; b < expected_bins.size(); ++b) {
    const double d = observed_bins[b] - expected_bins[b];
    chi2 += d * d / expected_bins[b];
  }
  return chi2;
}

}  // namespace retrasyn

#endif  // RETRASYN_TESTS_TESTING_CHI_SQUARE_H_
