#include "common/rng.h"

#include <cmath>
#include <random>

#include "common/logging.h"

namespace retrasyn {

uint64_t Rng::UniformInt(uint64_t n) {
  RETRASYN_DCHECK(n > 0);
  // Lemire's nearly-divisionless bounded sampling.
  uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
  uint64_t l = static_cast<uint64_t>(m);
  if (l < n) {
    uint64_t t = -n % n;
    while (l < t) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(n);
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

uint64_t Rng::Binomial(uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 32) {
    uint64_t c = 0;
    for (uint64_t i = 0; i < n; ++i) c += Bernoulli(p) ? 1 : 0;
    return c;
  }
  std::binomial_distribution<uint64_t> dist(n, p);
  return dist(*this);
}

double Rng::Gaussian(double mean, double stddev) {
  // Box-Muller; u1 is kept away from 0 so log() is finite.
  double u1 = UniformDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = UniformDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * radius * std::cos(2.0 * M_PI * u2);
}

size_t Rng::Discrete(const std::vector<double>& weights) {
  // Single pass (weighted reservoir): item i replaces the current pick with
  // probability w_i / prefix_total_i, which yields exactly w_i / total
  // overall. Unlike the former sum-then-walk two-pass scan this reads the
  // vector once, and it cannot fall off the end on floating-point slack —
  // the pick is always an index with positive weight. Zero total mass still
  // returns weights.size() and negative entries still count as zero.
  double total = 0.0;
  size_t pick = weights.size();
  for (size_t i = 0; i < weights.size(); ++i) {
    const double w = weights[i];
    if (!(w > 0.0)) continue;  // negatives and NaNs carry no mass
    total += w;
    if (UniformDouble() * total < w) pick = i;
  }
  if (total <= 0.0) return weights.size();
  return pick;
}

std::vector<uint32_t> Rng::SampleWithoutReplacement(uint32_t n, uint32_t k) {
  RETRASYN_CHECK(k <= n);
  std::vector<uint32_t> out;
  out.reserve(k);
  if (k == 0) return out;
  if (k * 3 < n) {
    // Floyd's algorithm: k draws, no pool shuffle (the bitmap costs O(n) bits
    // but avoids hashing; n is bounded by the user population here).
    std::vector<bool> chosen(n, false);
    for (uint32_t j = n - k; j < n; ++j) {
      uint32_t t = static_cast<uint32_t>(UniformInt(static_cast<uint64_t>(j) + 1));
      if (chosen[t]) t = j;
      chosen[t] = true;
      out.push_back(t);
    }
  } else {
    std::vector<uint32_t> pool(n);
    for (uint32_t i = 0; i < n; ++i) pool[i] = i;
    for (uint32_t i = 0; i < k; ++i) {
      const uint64_t j = i + UniformInt(static_cast<uint64_t>(n - i));
      std::swap(pool[i], pool[j]);
    }
    pool.resize(k);
    out = std::move(pool);
  }
  return out;
}

}  // namespace retrasyn
