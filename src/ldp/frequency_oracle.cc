#include "ldp/frequency_oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace retrasyn {

double OueParams::q() const { return 1.0 / (std::exp(epsilon) + 1.0); }

double OueFrequencyVariance(double epsilon, uint64_t n) {
  if (n == 0) return std::numeric_limits<double>::infinity();
  const double e = std::exp(epsilon);
  const double em1 = e - 1.0;
  return 4.0 * e / (static_cast<double>(n) * em1 * em1);
}

OueClient::OueClient(double epsilon, uint32_t domain_size) {
  RETRASYN_CHECK(epsilon > 0.0);
  RETRASYN_CHECK(domain_size > 0);
  params_.epsilon = epsilon;
  params_.domain_size = domain_size;
}

std::vector<uint8_t> OueClient::Perturb(uint32_t value, Rng& rng) const {
  RETRASYN_DCHECK(value < params_.domain_size);
  const double q = params_.q();
  std::vector<uint8_t> bits(params_.domain_size, 0);
  for (uint32_t i = 0; i < params_.domain_size; ++i) {
    const double keep_prob = (i == value) ? OueParams::p() : q;
    bits[i] = rng.Bernoulli(keep_prob) ? 1 : 0;
  }
  return bits;
}

std::vector<uint32_t> OueClient::PerturbSparse(uint32_t value, Rng& rng) const {
  RETRASYN_DCHECK(value < params_.domain_size);
  const double q = params_.q();
  std::vector<uint32_t> ones;
  // The true bit survives with probability p = 1/2.
  const bool true_bit = rng.Bernoulli(OueParams::p());
  // Number of flipped zeros among the domain_size - 1 other positions.
  const uint64_t flips = rng.Binomial(params_.domain_size - 1, q);
  ones.reserve(flips + (true_bit ? 1 : 0));
  if (true_bit) ones.push_back(value);
  // Sample flip positions uniformly among indices != value by drawing from
  // [0, d-1) and skipping over `value`.
  std::vector<uint32_t> positions = rng.SampleWithoutReplacement(
      params_.domain_size - 1, static_cast<uint32_t>(flips));
  for (uint32_t p : positions) {
    ones.push_back(p >= value ? p + 1 : p);
  }
  return ones;
}

OueAggregator::OueAggregator(double epsilon, uint32_t domain_size) {
  RETRASYN_CHECK(epsilon > 0.0);
  RETRASYN_CHECK(domain_size > 0);
  params_.epsilon = epsilon;
  params_.domain_size = domain_size;
  one_counts_.assign(domain_size, 0);
}

void OueAggregator::Reset(double epsilon) {
  RETRASYN_CHECK(epsilon > 0.0);
  params_.epsilon = epsilon;
  std::fill(one_counts_.begin(), one_counts_.end(), 0);
  n_ = 0;
}

void OueAggregator::AddReport(const std::vector<uint8_t>& report) {
  RETRASYN_CHECK(report.size() == one_counts_.size());
  for (uint32_t i = 0; i < report.size(); ++i) {
    one_counts_[i] += report[i] ? 1 : 0;
  }
  ++n_;
}

void OueAggregator::AddSparseReport(const std::vector<uint32_t>& one_bits) {
  for (uint32_t i : one_bits) {
    RETRASYN_DCHECK(i < one_counts_.size());
    ++one_counts_[i];
  }
  ++n_;
}

void OueAggregator::AddRawCounts(const std::vector<uint64_t>& one_counts,
                                 uint64_t n) {
  RETRASYN_CHECK(one_counts.size() == one_counts_.size());
  for (uint32_t i = 0; i < one_counts.size(); ++i) {
    one_counts_[i] += one_counts[i];
  }
  n_ += n;
}

std::vector<double> OueAggregator::EstimateFrequencies() const {
  std::vector<double> freqs(one_counts_.size(), 0.0);
  if (n_ == 0) return freqs;
  const double q = params_.q();
  const double denom = OueParams::p() - q;
  const double n = static_cast<double>(n_);
  for (uint32_t i = 0; i < one_counts_.size(); ++i) {
    freqs[i] = (static_cast<double>(one_counts_[i]) / n - q) / denom;
  }
  return freqs;
}

std::vector<double> OueAggregator::EstimateCounts() const {
  std::vector<double> counts = EstimateFrequencies();
  for (double& c : counts) c *= static_cast<double>(n_);
  return counts;
}

GrrClient::GrrClient(double epsilon, uint32_t domain_size)
    : epsilon_(epsilon), domain_size_(domain_size) {
  RETRASYN_CHECK(epsilon > 0.0);
  RETRASYN_CHECK(domain_size >= 2);
  const double e = std::exp(epsilon_);
  p_ = e / (e + domain_size_ - 1.0);
}

uint32_t GrrClient::Perturb(uint32_t value, Rng& rng) const {
  RETRASYN_DCHECK(value < domain_size_);
  if (rng.Bernoulli(p_)) return value;
  // Uniform over the d-1 other values.
  uint32_t other = static_cast<uint32_t>(rng.UniformInt(
      static_cast<uint64_t>(domain_size_) - 1));
  return other >= value ? other + 1 : other;
}

GrrAggregator::GrrAggregator(double epsilon, uint32_t domain_size)
    : epsilon_(epsilon), domain_size_(domain_size) {
  RETRASYN_CHECK(domain_size >= 2);
  counts_.assign(domain_size, 0);
}

void GrrAggregator::AddReport(uint32_t value) {
  RETRASYN_DCHECK(value < domain_size_);
  ++counts_[value];
  ++n_;
}

std::vector<double> GrrAggregator::EstimateFrequencies() const {
  std::vector<double> freqs(domain_size_, 0.0);
  if (n_ == 0) return freqs;
  const double e = std::exp(epsilon_);
  const double p = e / (e + domain_size_ - 1.0);
  const double q = 1.0 / (e + domain_size_ - 1.0);
  const double n = static_cast<double>(n_);
  for (uint32_t i = 0; i < domain_size_; ++i) {
    freqs[i] = (static_cast<double>(counts_[i]) / n - q) / (p - q);
  }
  return freqs;
}

double GrrFrequencyVariance(double epsilon, uint32_t domain_size, uint64_t n) {
  if (n == 0) return std::numeric_limits<double>::infinity();
  const double e = std::exp(epsilon);
  const double d = static_cast<double>(domain_size);
  // Worst-case (f -> 0) variance of the GRR estimator.
  return (e + d - 2.0) / (static_cast<double>(n) * (e - 1.0) * (e - 1.0));
}

void ApplyPostprocess(Postprocess mode, std::vector<double>& freqs,
                      double target_mass) {
  switch (mode) {
    case Postprocess::kNone:
      return;
    case Postprocess::kClip:
      for (double& f : freqs) f = std::max(f, 0.0);
      return;
    case Postprocess::kNormSub: {
      // Iteratively: clamp negatives to 0, then shift the positive entries by
      // a constant so the total equals target_mass. Converges because the
      // support shrinks monotonically.
      std::vector<char> fixed(freqs.size(), 0);
      for (int iter = 0; iter < 64; ++iter) {
        double mass = 0.0;
        uint32_t free_count = 0;
        for (uint32_t i = 0; i < freqs.size(); ++i) {
          if (!fixed[i]) {
            mass += freqs[i];
            ++free_count;
          }
        }
        if (free_count == 0) break;
        const double delta = (target_mass - mass) / free_count;
        bool any_clamped = false;
        for (uint32_t i = 0; i < freqs.size(); ++i) {
          if (fixed[i]) continue;
          freqs[i] += delta;
          if (freqs[i] < 0.0) {
            freqs[i] = 0.0;
            fixed[i] = 1;
            any_clamped = true;
          }
        }
        if (!any_clamped) break;
      }
      return;
    }
  }
}

}  // namespace retrasyn
