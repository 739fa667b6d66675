#include "ldp/aggregate.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace retrasyn {

uint64_t BinomialHalf(uint64_t c, Rng& rng) {
  uint64_t ones = 0;
  for (; c >= 64; c -= 64) {
    ones += static_cast<uint64_t>(__builtin_popcountll(rng()));
  }
  if (c > 0) {
    ones += static_cast<uint64_t>(__builtin_popcountll(rng() >> (64 - c)));
  }
  return ones;
}

void BinomialTable::Build(uint64_t n, double p, Scratch& scratch,
                          double window_sigmas) {
  RETRASYN_DCHECK(p >= 0.0 && p <= 1.0);
  const double nd = static_cast<double>(n);
  const double mean = nd * p;
  const double sigma = std::sqrt(mean * (1.0 - p));
  // Both recurrences start at the mode floor((n + 1) p), so the window
  // always holds it.
  const uint64_t mode =
      std::min<uint64_t>(n, static_cast<uint64_t>((nd + 1.0) * p));
  const double lo = std::floor(mean - window_sigmas * sigma);
  const double hi = std::ceil(mean + window_sigmas * sigma);
  lo_ = lo <= 0.0 ? 0 : std::min<uint64_t>(mode, static_cast<uint64_t>(lo));
  hi_ = hi >= nd ? n : std::max<uint64_t>(mode, static_cast<uint64_t>(hi));

  // pmf(k + 1) / pmf(k) and pmf(k - 1) / pmf(k).
  const double odds = p / (1.0 - p);
  const auto up = [&](uint64_t k) {
    return odds * static_cast<double>(n - k) / static_cast<double>(k + 1);
  };
  const auto down = [&](uint64_t k) {
    return static_cast<double>(k) / (odds * static_cast<double>(n - k + 1));
  };

  // The window, in units of pmf(mode).
  std::vector<double>& weights = scratch.weights;
  weights.assign(window_size(), 0.0);
  weights[mode - lo_] = 1.0;
  for (uint64_t k = mode; k < hi_; ++k) {
    weights[k + 1 - lo_] = weights[k - lo_] * up(k);
  }
  for (uint64_t k = mode; k > lo_; --k) {
    weights[k - 1 - lo_] = weights[k - lo_] * down(k);
  }
  window_total_ = 0.0;
  for (double w : weights) window_total_ += w;

  // The tails: the same recurrence continued past each window edge. Away
  // from the mode the ratio r shrinks at every step, so the terms after w sum
  // to at most w r / (1 - r); a tail stops once that is below 2^-60 of its
  // own sum, or its terms underflow, or the domain ends.
  tail_values_.clear();
  tail_weights_.clear();
  tail_total_ = 0.0;
  const auto extend = [&](uint64_t k, double w, bool upward) {
    double sum = 0.0;
    while (upward ? k < n : k > 0) {
      const double r = upward ? up(k) : down(k);
      w *= r;
      k = upward ? k + 1 : k - 1;
      if (!(w > 0.0)) break;
      tail_values_.push_back(k);
      tail_weights_.push_back(w);
      sum += w;
      if (r < 1.0 && w * r <= (1.0 - r) * sum * 0x1p-60) break;
    }
    tail_total_ += sum;
  };
  extend(lo_, weights.front(), /*upward=*/false);
  extend(hi_, weights.back(), /*upward=*/true);

  // No tail column when the tail is empty: a zero-weight column could still
  // be drawn through the alias build's rounding leftovers.
  if (tail_total_ > 0.0) weights.push_back(tail_total_);
  prob_.resize(weights.size());
  alias_.resize(weights.size());
  AliasTable::BuildSlice(weights.data(), weights.size(), prob_.data(),
                         alias_.data(), scratch.alias);
}

uint64_t BinomialTable::SampleTail(Rng& rng) const {
  // Inversion over the stored terms; rounding slack lands on the last one.
  double u = rng.UniformDouble() * tail_total_;
  for (size_t i = 0; i + 1 < tail_weights_.size(); ++i) {
    u -= tail_weights_[i];
    if (u < 0.0) return tail_values_[i];
  }
  return tail_values_.back();
}

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
    CollectTimings* timings) {
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
    CollectTimings* timings) {
  CollectionResult result;
  result.epsilon = epsilon;
  if (oue_.has_value()) {
    oue_->Reset(epsilon);
  } else {
    oue_.emplace(epsilon, domain_size_);
  }
  OueAggregator& aggregator = *oue_;
  Stopwatch watch;
  if (mode_ == CollectionMode::kPerUser) {
    OueClient client(epsilon, domain_size_);
    for (StateId s : states) {
      RETRASYN_DCHECK(s < domain_size_);
      aggregator.AddSparseReport(client.PerturbSparse(s, rng));
    }
  } else {
    // Exact-in-distribution aggregate simulation: the true count c of each
    // state, replaced in place by its one-count Binomial(c, 1/2) (surviving
    // 1-bits) + Binomial(n - c, q) (flipped 0-bits).
    std::vector<uint64_t>& counts = counts_;
    counts.assign(domain_size_, 0);
    for (StateId s : states) {
      RETRASYN_DCHECK(s < domain_size_);
      ++counts[s];
    }
    const uint64_t n = states.size();
    const double q = OueParams{epsilon, domain_size_}.q();
    BinomialTable::Scratch scratch;
    // Nearly every state of a large domain went unreported and draws
    // Binomial(n, q); a reported state draws from the table for n - c,
    // built the first time that n - c comes up this round.
    BinomialTable unreported;
    unreported.Build(n, q, scratch);
    std::unordered_map<uint64_t, BinomialTable> flipped;
    for (uint64_t& count : counts) {
      if (count == 0) {
        count = unreported.Sample(rng);
        continue;
      }
      const auto [it, fresh] = flipped.try_emplace(n - count);
      if (fresh) it->second.Build(n - count, q, scratch);
      count = BinomialHalf(count, rng) + it->second.Sample(rng);
    }
    aggregator.AddRawCounts(counts, n);
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
