// Deterministic pseudo-random number generation. Every stochastic component
// in the library takes an explicit Rng&, so experiments are reproducible
// bit-for-bit given a seed. The engine is xoshiro256** seeded via splitmix64,
// which is both faster than std::mt19937_64 and has better statistical
// properties for the Bernoulli-heavy perturbation workloads here.

#ifndef RETRASYN_COMMON_RNG_H_
#define RETRASYN_COMMON_RNG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace retrasyn {

/// \brief splitmix64 step; used for seeding and cheap hashing.
inline uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// \brief xoshiro256** engine satisfying UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x243f6a8885a308d3ULL) { Seed(seed); }

  void Seed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& word : s_) word = SplitMix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * UniformDouble();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t UniformInt(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  int64_t UniformInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(UniformInt(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Binomial(n, p) sample: direct Bernoulli summation for small n, the
  /// standard-library rejection sampler for large n. Exact in distribution in
  /// both regimes.
  uint64_t Binomial(uint64_t n, double p);

  /// Standard normal via Box-Muller (no cached spare; callers in this codebase
  /// draw rarely enough that caching is not worth statefulness).
  double Gaussian(double mean = 0.0, double stddev = 1.0);

  /// Samples an index in [0, weights.size()) proportional to weights.
  /// Negative weights are treated as zero. Returns weights.size() if the total
  /// mass is zero (caller decides the fallback). Requires the positive mass to
  /// sum below DBL_MAX: an overflowing total degenerates to a deterministic
  /// positive-weight pick (the old two-pass scan degenerated similarly).
  size_t Discrete(const std::vector<double>& weights);

  /// Samples k distinct indices from [0, n) uniformly (Floyd's algorithm when
  /// k << n, otherwise partial Fisher-Yates). Result order is unspecified.
  std::vector<uint32_t> SampleWithoutReplacement(uint32_t n, uint32_t k);

  /// Derives an independent child generator; useful for giving each simulated
  /// user or component its own deterministic stream.
  Rng Fork() { return Rng((*this)()); }

  // --- Raw state access (checkpointing) ------------------------------------
  //
  // The full generator state, so a serialized engine resumes the *identical*
  // random sequence. The all-zero state is a fixed point of xoshiro256** and
  // never arises from Seed(); set_state rejects it (no-op) rather than
  // bricking the generator on a hand-crafted checkpoint.

  std::array<uint64_t, 4> state() const { return {s_[0], s_[1], s_[2], s_[3]}; }

  bool set_state(const std::array<uint64_t, 4>& s) {
    if ((s[0] | s[1] | s[2] | s[3]) == 0) return false;
    for (int i = 0; i < 4; ++i) s_[i] = s[i];
    return true;
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  uint64_t s_[4];
};

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_RNG_H_
