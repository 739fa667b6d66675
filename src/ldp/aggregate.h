// Transition-state collection round: the bridge between a set of reporting
// users (each holding one TransitionState) and the curator's noisy frequency
// estimate over the state space.
//
// Every round collects with OUE (paper SIV): its worst-case variance does not
// grow with the domain size, and transition-state domains hold up to 11
// states per cell, where GRR's variance (which grows with the domain) loses.
//
// Two fidelities are provided:
//  * kPerUser       — every reporting user runs a real OUE client and the
//                     curator aggregates the bit vectors. This is the actual
//                     protocol; O(n * |S|) per round.
//  * kAggregateSim  — the aggregated one-counts are drawn directly from their
//                     exact sampling distribution: for a state with true count
//                     c among n reporters, ones(state) ~ Binomial(c, 1/2) +
//                     Binomial(n - c, q). Because OUE perturbs every bit
//                     independently, this equals the distribution of the
//                     per-user sum, at O(|S|) per round. Benches and the
//                     engine use this mode so laptop-scale runs match the
//                     paper's population sizes.
//
// The simulation makes O(1) draws. Binomial(c, 1/2) is the popcount of c
// fair bits, 64 per RNG word (BinomialHalf). Binomial(m, q) comes from a
// BinomialTable built once per round for m = n (the states nobody reported,
// nearly all of a large domain) and once per distinct m = n - c: an alias
// table over the pmf on the window mean +- 12 sigma, plus one column that
// carries the exact mass outside the window and, when drawn, draws from that
// tail by inversion. kPerUser and OueClient keep Rng::Binomial, so they stay
// an independent reference: tests/ldp/collector_test.cc checks that both
// modes give estimates with matching mean and variance, and
// tests/ldp/binomial_table_test.cc checks the table draws against the exact
// pmf.

#ifndef RETRASYN_LDP_AGGREGATE_H_
#define RETRASYN_LDP_AGGREGATE_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/alias_table.h"
#include "common/rng.h"
#include "geo/state_space.h"
#include "ldp/frequency_oracle.h"

namespace retrasyn {

/// \brief Binomial(c, 1/2): the number of ones among c fair bits, drawn 64
/// bits per RNG word (ceil(c / 64) words; none for c = 0).
uint64_t BinomialHalf(uint64_t c, Rng& rng);

/// \brief Exact Binomial(n, p) draws in O(1) from a table built in
/// O(sigma) time.
///
/// The table is an alias slice over the pmf on the window
/// [mu - k sigma, mu + k sigma] clamped to [0, n] (k = window_sigmas), with
/// the pmf taken by the ratio recurrence out from the mode. One extra column
/// weighs the mass outside the window. That mass is the same recurrence
/// continued past both window edges, summed term by term (never 1 - sum, which
/// would cancel), until the rest is below 2^-60 of it. Drawing that column
/// draws from the stored tail terms by inversion, so a draw is exact up to
/// double rounding and never loops. When the window covers all of [0, n] the
/// tail is empty and the table has no tail column.
class BinomialTable {
 public:
  /// Window half-width in standard deviations: the tail beyond 12 sigma
  /// weighs under 1e-16 of the window (about 1e-32 when the pmf is near
  /// symmetric), so its column is almost never drawn.
  static constexpr double kWindowSigmas = 12.0;

  /// Scratch for Build. Reusing one instance across builds keeps them
  /// allocation-free apart from the table's own arrays.
  struct Scratch {
    std::vector<double> weights;
    AliasTable::Worklists alias;
  };

  /// (Re)builds the table for Binomial(n, p), p in [0, 1]. \p window_sigmas
  /// is the window half-width; tests pass a narrow one to exercise the tail.
  void Build(uint64_t n, double p, Scratch& scratch,
             double window_sigmas = kWindowSigmas);

  /// One Binomial(n, p) draw; requires a built table. Consumes one RNG draw,
  /// plus one more when the tail column is drawn.
  // HOT PATH — one draw per state of the OUE aggregate simulation.
  uint64_t Sample(Rng& rng) const {
    const size_t column =
        AliasTable::SampleSlice(prob_.data(), alias_.data(), prob_.size(), rng);
    return column < window_size() ? lo_ + column : SampleTail(rng);
  }

  /// The window [lo(), hi()] the alias columns cover.
  uint64_t lo() const { return lo_; }
  uint64_t hi() const { return hi_; }
  /// Mass outside the window relative to the mass inside it; exactly 0 when
  /// the window is all of [0, n].
  double tail_mass() const { return tail_total_ / window_total_; }

 private:
  size_t window_size() const { return static_cast<size_t>(hi_ - lo_) + 1; }
  uint64_t SampleTail(Rng& rng) const;

  uint64_t lo_ = 0;
  uint64_t hi_ = 0;
  std::vector<double> prob_;     ///< alias slice: the window, then the tail
  std::vector<uint32_t> alias_;
  /// The values outside the window with their pmf terms, in the relative
  /// units of the window weights: the lower tail walking down from lo - 1,
  /// then the upper tail walking up from hi + 1.
  std::vector<uint64_t> tail_values_;
  std::vector<double> tail_weights_;
  double tail_total_ = 0.0;
  double window_total_ = 1.0;
};

enum class CollectionMode {
  kPerUser,
  kAggregateSim,
};

/// \brief Outcome of one LDP collection round.
struct CollectionResult {
  /// Unbiased frequency estimates over the full state space (fraction of the
  /// reporting population per state; may contain negatives before
  /// post-processing).
  std::vector<double> frequencies;
  /// Number of users that reported this round.
  uint64_t num_reports = 0;
  /// Per-report privacy budget used this round.
  double epsilon = 0.0;
};

/// \brief Wall-clock split of one collection round, for the component
/// efficiency experiment (paper Table V): perturbation happens on the user
/// side, aggregation/estimation on the curator side.
struct CollectTimings {
  double user_side_seconds = 0.0;
  double aggregation_seconds = 0.0;
};

/// \brief Runs LDP collection rounds over a transition-state domain.
class TransitionCollector {
 public:
  TransitionCollector(uint32_t domain_size, CollectionMode mode)
      : domain_size_(domain_size), mode_(mode) {}

  uint32_t domain_size() const { return domain_size_; }
  CollectionMode mode() const { return mode_; }

  /// Collects the given users' states with per-report budget \p epsilon.
  /// An empty \p states or non-positive epsilon yields a zero-report result
  /// with empty frequency estimates (callers treat that as "no update").
  /// When \p timings is non-null, the user-side / curator-side wall-clock
  /// split is reported through it.
  /// Not const: rounds reuse the collector's count buffers.
  CollectionResult Collect(const std::vector<StateId>& states, double epsilon,
                           Rng& rng, CollectTimings* timings = nullptr);

 private:
  uint32_t domain_size_;
  CollectionMode mode_;
  // OUE round buffers, kept across rounds: the aggregate simulation's
  // per-state counts and the aggregator's one-counts (built on first use).
  std::vector<uint64_t> counts_;
  std::optional<OueAggregator> oue_;
};

}  // namespace retrasyn

#endif  // RETRASYN_LDP_AGGREGATE_H_
