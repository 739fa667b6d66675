// Frequency oracles (paper SII-A). The primary protocol is Optimized Unary
// Encoding (OUE, Wang et al. USENIX Security'17): each user one-hot encodes
// their value over the state domain, keeps the 1-bit with probability 1/2 and
// flips each 0-bit to 1 with probability q = 1/(e^eps + 1). OUE has the
// minimal worst-case estimation variance among unary-encoding protocols,
// Var[f_hat] = 4 e^eps / (n (e^eps - 1)^2)   (Eq. 3),
// which is exactly the quantity the DMU mechanism trades off against
// approximation bias. The Generalized Randomized Response (GRR) client is
// kept for the perturbation audit (ldp/audit.h); rounds never collect with it.

#ifndef RETRASYN_LDP_FREQUENCY_ORACLE_H_
#define RETRASYN_LDP_FREQUENCY_ORACLE_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace retrasyn {

/// \brief OUE perturbation probabilities for a given privacy budget.
struct OueParams {
  double epsilon = 1.0;
  uint32_t domain_size = 0;

  /// Probability that a 1-bit stays 1.
  static constexpr double p() { return 0.5; }
  /// Probability that a 0-bit is flipped to 1.
  double q() const;
};

/// \brief Worst-case variance of the OUE frequency estimate (paper Eq. 3).
double OueFrequencyVariance(double epsilon, uint64_t n);

/// \brief User-side OUE: encodes and perturbs a single value.
class OueClient {
 public:
  OueClient(double epsilon, uint32_t domain_size);

  double epsilon() const { return params_.epsilon; }
  uint32_t domain_size() const { return params_.domain_size; }

  /// Produces the full perturbed bit vector for `value` (one byte per bit).
  /// Requires value < domain_size.
  std::vector<uint8_t> Perturb(uint32_t value, Rng& rng) const;

  /// Equivalent in distribution to Perturb() but returns only the indices of
  /// the 1-bits: the number of flipped zeros is drawn from
  /// Binomial(domain-1, q) and their positions are sampled uniformly. This is
  /// the representation users would realistically transmit when q is small.
  std::vector<uint32_t> PerturbSparse(uint32_t value, Rng& rng) const;

 private:
  OueParams params_;
};

/// \brief Curator-side OUE aggregation and unbiased estimation.
class OueAggregator {
 public:
  OueAggregator(double epsilon, uint32_t domain_size);

  /// Starts over at budget \p epsilon with no reports, reusing the count
  /// buffer (a per-round collector keeps one aggregator across rounds).
  void Reset(double epsilon);

  /// Adds one user's dense report (vector of 0/1 bytes of length domain_size).
  void AddReport(const std::vector<uint8_t>& report);

  /// Adds one user's sparse report (indices of 1-bits).
  void AddSparseReport(const std::vector<uint32_t>& one_bits);

  /// Adds pre-aggregated raw one-counts from \p n users (used by the
  /// distribution-exact aggregate simulator).
  void AddRawCounts(const std::vector<uint64_t>& one_counts, uint64_t n);

  uint64_t num_reports() const { return n_; }

  /// Unbiased frequency estimates f_hat(x) = (c'(x)/n - q) / (p - q).
  /// Entries may be negative or exceed 1; see postprocess.h.
  std::vector<double> EstimateFrequencies() const;

  /// Unbiased count estimates n * f_hat(x).
  std::vector<double> EstimateCounts() const;

 private:
  OueParams params_;
  std::vector<uint64_t> one_counts_;
  uint64_t n_ = 0;
};

/// \brief Generalized randomized response over a domain of size d:
/// report the true value with probability e^eps / (e^eps + d - 1), otherwise a
/// uniformly random other value.
class GrrClient {
 public:
  GrrClient(double epsilon, uint32_t domain_size);

  uint32_t Perturb(uint32_t value, Rng& rng) const;

  double keep_probability() const { return p_; }

 private:
  double epsilon_;
  uint32_t domain_size_;
  double p_;
};

/// \brief Post-processing for noisy frequency vectors (Thm. 2 keeps this
/// privacy-free).
enum class Postprocess {
  kNone,     ///< keep raw unbiased estimates (may be negative)
  kClip,     ///< clamp negatives to zero
  kNormSub,  ///< iterative norm-sub: non-negative and sums to the target mass
};

/// \brief Applies \p mode in place. For kNormSub, \p target_mass is the mass
/// the result should sum to (1.0 for a frequency distribution).
void ApplyPostprocess(Postprocess mode, std::vector<double>& freqs,
                      double target_mass = 1.0);

}  // namespace retrasyn

#endif  // RETRASYN_LDP_FREQUENCY_ORACLE_H_
