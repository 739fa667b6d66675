#include "ldp/aggregate.h"

#include "common/logging.h"
#include "common/stopwatch.h"

namespace retrasyn {

OracleKind TransitionCollector::EffectiveOracle(double epsilon) const {
  if (oracle_ != OracleKind::kAuto) return oracle_;
  // Both worst-case variances scale as 1/n, so any n > 0 gives the same
  // comparison; GRR wins iff d < 3 e^eps + 2 (Wang et al. '17).
  const uint64_t n = 1000;
  return GrrFrequencyVariance(epsilon, domain_size_, n) <
                 OueFrequencyVariance(epsilon, n)
             ? OracleKind::kGrr
             : OracleKind::kOue;
}

CollectionResult TransitionCollector::Collect(
    const std::vector<StateId>& states, double epsilon, Rng& rng,
    CollectTimings* timings) const {
  CollectionResult result;
  result.epsilon = epsilon;
  if (states.empty() || !(epsilon > 0.0)) {  // also rejects NaN budgets
    return result;
  }
  if (EffectiveOracle(epsilon) == OracleKind::kGrr) {
    return CollectGrr(states, epsilon, rng, timings);
  }
  return CollectOue(states, epsilon, rng, timings);
}

CollectionResult TransitionCollector::CollectOue(
    const std::vector<StateId>& states, double epsilon, Rng& rng,
    CollectTimings* timings) const {
  CollectionResult result;
  result.epsilon = epsilon;
  OueAggregator aggregator(epsilon, domain_size_);
  Stopwatch watch;
  if (mode_ == CollectionMode::kPerUser) {
    OueClient client(epsilon, domain_size_);
    for (StateId s : states) {
      RETRASYN_DCHECK(s < domain_size_);
      aggregator.AddSparseReport(client.PerturbSparse(s, rng));
    }
  } else {
    // Exact-in-distribution aggregate simulation: true counts per state, then
    // a binomial draw for surviving 1-bits and flipped 0-bits per position.
    std::vector<uint64_t> true_counts(domain_size_, 0);
    for (StateId s : states) {
      RETRASYN_DCHECK(s < domain_size_);
      ++true_counts[s];
    }
    const uint64_t n = states.size();
    const double q = OueParams{epsilon, domain_size_}.q();
    // Nearly every state of a large domain went unreported and draws
    // Binomial(n, q): set up that sampler once per round.
    const Rng::BinomialParam unreported(n, q);
    std::vector<uint64_t> ones(domain_size_, 0);
    for (uint32_t i = 0; i < domain_size_; ++i) {
      const uint64_t count = true_counts[i];
      const uint64_t kept = rng.Binomial(count, OueParams::p());
      const uint64_t flipped =
          count == 0 ? rng.Binomial(unreported) : rng.Binomial(n - count, q);
      ones[i] = kept + flipped;
    }
    aggregator.AddRawCounts(ones, n);
  }
  const double perturb_seconds = watch.ElapsedSeconds();
  watch.Reset();
  result.num_reports = aggregator.num_reports();
  result.frequencies = aggregator.EstimateFrequencies();
  if (timings != nullptr) {
    timings->user_side_seconds = perturb_seconds;
    timings->aggregation_seconds = watch.ElapsedSeconds();
  }
  return result;
}

CollectionResult TransitionCollector::CollectGrr(
    const std::vector<StateId>& states, double epsilon, Rng& rng,
    CollectTimings* timings) const {
  CollectionResult result;
  result.epsilon = epsilon;
  GrrAggregator aggregator(epsilon, domain_size_);
  Stopwatch watch;
  if (mode_ == CollectionMode::kPerUser) {
    GrrClient client(epsilon, domain_size_);
    for (StateId s : states) {
      RETRASYN_DCHECK(s < domain_size_);
      aggregator.AddReport(client.Perturb(s, rng));
    }
  } else {
    // Exact aggregate simulation: per true state, Binomial(c, p) reports are
    // kept; each misreport lands uniformly on one of the d - 1 other values.
    // O(n) per round with a tiny constant.
    GrrClient client(epsilon, domain_size_);
    std::vector<uint64_t> true_counts(domain_size_, 0);
    for (StateId s : states) {
      RETRASYN_DCHECK(s < domain_size_);
      ++true_counts[s];
    }
    for (uint32_t x = 0; x < domain_size_; ++x) {
      if (true_counts[x] == 0) continue;
      const uint64_t kept =
          rng.Binomial(true_counts[x], client.keep_probability());
      for (uint64_t k = 0; k < kept; ++k) aggregator.AddReport(x);
      const uint64_t misses = true_counts[x] - kept;
      for (uint64_t m = 0; m < misses; ++m) {
        uint32_t other = static_cast<uint32_t>(
            rng.UniformInt(static_cast<uint64_t>(domain_size_) - 1));
        aggregator.AddReport(other >= x ? other + 1 : other);
      }
    }
  }
  const double perturb_seconds = watch.ElapsedSeconds();
  watch.Reset();
  result.num_reports = aggregator.num_reports();
  result.frequencies = aggregator.EstimateFrequencies();
  if (timings != nullptr) {
    timings->user_side_seconds = perturb_seconds;
    timings->aggregation_seconds = watch.ElapsedSeconds();
  }
  return result;
}

}  // namespace retrasyn
