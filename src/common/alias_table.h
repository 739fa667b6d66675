// Walker/Vose alias method: O(n) construction, O(1) sampling from a fixed
// discrete distribution (the sampling primitive LDPTrace-style grid
// synthesizers precompute per cell).
//
// Compared with Rng::Discrete — O(n) per draw over the raw weight vector —
// an alias table pays the linear cost once per *distribution change* and then
// answers every draw with one RNG draw, one comparison, and two array reads.
// That is what makes per-point synthesis cost independent of the cell degree
// and of |C|: the tables are cached and invalidated by the mobility model's
// dirty-state log (see core/transition_sampler_cache.h).
//
// The algorithm lives in two static routines over caller-owned slices,
// BuildSlice and SampleSlice, so many small tables can share flat arrays and
// one set of build worklists (the sampler cache keeps one slice per source
// cell). The AliasTable class owns its slice and calls the same routines, so
// a class table and a slice built from the same weights draw identically.
//
// Build() reuses the table's internal storage, so steady-state rebuilds of a
// same-sized distribution perform no heap allocation.

#ifndef RETRASYN_COMMON_ALIAS_TABLE_H_
#define RETRASYN_COMMON_ALIAS_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace retrasyn {

class AliasTable {
 public:
  /// Scratch for BuildSlice. Reusing one instance across builds keeps
  /// steady-state rebuilds allocation-free.
  struct Worklists {
    std::vector<uint32_t> small;
    std::vector<uint32_t> large;
    std::vector<double> scaled;
  };

  /// Builds an alias table over \p n weights into the caller's slices
  /// prob[0, n) and alias[0, n), which hold slice-local column indices.
  /// Negative weights are treated as zero, matching Rng::Discrete. Returns
  /// the sum of the clamped weights; when it is not positive the slices are
  /// zero-filled and must not be sampled.
  static double BuildSlice(const double* weights, size_t n, double* prob,
                           uint32_t* alias, Worklists& work);

  /// Samples a column in [0, n) of a slice built with a positive total.
  /// Consumes exactly one RNG draw: the integer and fractional parts of one
  /// uniform double select the column and the accept/alias branch (53
  /// mantissa bits cover both for any realistic n).
  // HOT PATH — the per-synthetic-point draw; table lookups only.
  static size_t SampleSlice(const double* prob, const uint32_t* alias,
                            size_t n, Rng& rng) {
    const double x = rng.UniformDouble() * static_cast<double>(n);
    size_t column = static_cast<size_t>(x);
    if (column >= n) column = n - 1;  // fp guard
    const double frac = x - static_cast<double>(column);
    return frac < prob[column] ? column : alias[column];
  }

  AliasTable() = default;

  /// (Re)builds the table from \p n weights. A zero total mass leaves the
  /// table with has_mass() == false; Sample must not be called in that state
  /// (the caller decides the fallback, again matching Discrete's size()
  /// sentinel contract).
  void Build(const double* weights, size_t n);
  void Build(const std::vector<double>& weights) {
    Build(weights.data(), weights.size());
  }

  size_t size() const { return prob_.size(); }
  bool has_mass() const { return has_mass_; }
  /// Sum of the (clamped) weights the table was built from.
  double total_mass() const { return total_; }

  /// Samples an index in [0, size()) proportional to the build weights.
  /// Requires has_mass(); see SampleSlice.
  size_t Sample(Rng& rng) const {
    return SampleSlice(prob_.data(), alias_.data(), prob_.size(), rng);
  }

 private:
  std::vector<double> prob_;     ///< acceptance threshold per column, in [0,1]
  std::vector<uint32_t> alias_;  ///< overflow target per column
  Worklists work_;
  double total_ = 0.0;
  bool has_mass_ = false;
};

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_ALIAS_TABLE_H_
