// Cached O(1) samplers over the global mobility model's derived
// distributions (paper SIV-B: per-round synthesis must be O(|T_syn|)).
//
// The synthesizer used to re-derive distributions from raw frequencies at
// every draw: O(degree) + a heap allocation per sampled point, O(|C|) per
// spawned stream for the entering distribution. This cache materializes, per
// source cell, a Walker/Vose alias table over the outgoing movement
// frequencies plus the Eq. 6/8 quit probability, and global alias tables for
// the entering distribution and the movement-source marginal, making every
// per-point operation one RNG draw and three array reads — independent of
// cell degree and of |C|.
//
// The per-cell tables are flat. Cell c's movement states occupy
// [MoveOffset(c), MoveOffset(c) + degree) in the state space, and its alias
// slice occupies the same range of two flat arrays (acceptance threshold and
// slice-local alias column), next to a flat move_target array holding the
// cell each movement state reaches. A draw reads the cell's {offset, degree,
// has_mass} record, one column of the slice and one target: no per-cell
// object, no pointer chase into a per-cell heap buffer.
//
// Invalidation is driven by the model's change log: ReplaceAll (or a
// collapsed log) triggers a full rebuild, while the DMU's UpdateStates only
// re-derives the cells whose states were actually selected (Sync cost
// O(dirty) instead of O(|S|)). Every per-cell rebuild writes in place and
// shares one set of alias worklists, so the steady state performs no heap
// allocation at all.
//
// Thread-safety: Sync mutates the cache and must not run concurrently with
// sampling; the sampling accessors are const and safe to call from parallel
// synthesis chunks — except SampleMoveMarginalCell, which rebuilds its table
// lazily and is only ever called from the serial spawn path.

#ifndef RETRASYN_CORE_TRANSITION_SAMPLER_CACHE_H_
#define RETRASYN_CORE_TRANSITION_SAMPLER_CACHE_H_

#include <cstdint>
#include <vector>

#include "common/alias_table.h"
#include "common/rng.h"
#include "core/mobility_model.h"
#include "geo/state_space.h"

namespace retrasyn {

/// Observability counters for tests and benchmarks: how much derivation work
/// each Sync actually performed.
struct SamplerCacheStats {
  uint64_t syncs = 0;           ///< Sync calls that found the cache stale
  uint64_t full_rebuilds = 0;   ///< full invalidations processed
  uint64_t cell_rebuilds = 0;   ///< per-cell movement tables re-derived
  uint64_t enter_rebuilds = 0;  ///< entering-distribution table rebuilds
  uint64_t quit_rebuilds = 0;   ///< quitting-distribution rebuilds
};

class TransitionSamplerCache {
 public:
  explicit TransitionSamplerCache(const StateSpace& states);

  /// Brings every cached structure up to date with \p model. Cheap when the
  /// model did not change since the last Sync; proportional to the dirty set
  /// otherwise. Must be called (and return) before any sampling accessor.
  void Sync(const GlobalMobilityModel& model);

  /// True once Sync has run against the current model version.
  bool synced_once() const { return synced_once_; }

  /// O(1) Markov step out of \p from, distributed exactly like the linear
  /// scan over max(0, f_ij): dwells in place (returns \p from) when the cell
  /// has no outgoing movement mass.
  // HOT PATH — one draw per synthetic point; flat table reads only.
  CellId SampleNextCell(CellId from, Rng& rng) const {
    const CellSampler& cell = cells_[from];
    if (!cell.has_mass) return from;
    const size_t column = AliasTable::SampleSlice(
        move_prob_.data() + cell.offset, move_alias_.data() + cell.offset,
        cell.degree, rng);
    return move_target_[cell.offset + column];
  }

  /// Eq. 8 base quit probability at \p at: f_iQ / (sum_nbrs f_ix + f_iQ).
  double QuitProbability(CellId at) const { return quit_prob_[at]; }

  /// Draws a start cell from the entering distribution Pr(e_i); returns
  /// num_cells() when the model holds no entering mass (caller falls back to
  /// uniform, mirroring Rng::Discrete's sentinel).
  CellId SampleEnterCell(Rng& rng) const {
    if (!enter_.has_mass()) return states_->num_cells();
    return static_cast<CellId>(enter_.Sample(rng));
  }

  /// Draws a start cell from the movement-source marginal (the NoEQ /
  /// random_init approximation of where users currently are); num_cells()
  /// when the model carries no movement mass. The O(|C|) marginal table is
  /// rebuilt lazily on the first draw after an invalidating Sync, so configs
  /// that never spawn from it (random_init=false, the default) never pay for
  /// it. Must not be called concurrently with itself or Sync — in practice
  /// it only runs from the serial Spawn path, never from parallel chunks.
  CellId SampleMoveMarginalCell(Rng& rng) const {
    if (move_marginal_stale_) {
      move_marginal_.Build(move_mass_);
      move_marginal_stale_ = false;
    }
    if (!move_marginal_.has_mass()) return states_->num_cells();
    return static_cast<CellId>(move_marginal_.Sample(rng));
  }

  /// Normalized quitting distribution Pr(q_j) (all zeros when no quit mass),
  /// identical to GlobalMobilityModel::QuitDistribution but rebuilt only when
  /// a quit state changes. Used by the size-adjustment victim weighting.
  const std::vector<double>& QuitDistribution() const { return quit_dist_; }

  const SamplerCacheStats& stats() const { return stats_; }

 private:
  void RebuildCell(const GlobalMobilityModel& model, CellId c);
  void RebuildEnter(const GlobalMobilityModel& model);
  void RebuildQuitDistribution(const GlobalMobilityModel& model);
  void RebuildAll(const GlobalMobilityModel& model);

  const StateSpace* states_;

  // Synchronization point with the model's change log.
  bool synced_once_ = false;
  uint64_t synced_version_ = 0;
  uint64_t synced_replace_version_ = 0;
  size_t dirty_log_consumed_ = 0;

  /// Where a source cell's alias slice lives in the flat move arrays.
  struct CellSampler {
    StateId offset = 0;     ///< MoveOffset(c)
    uint32_t degree = 0;    ///< Neighbors(c).size()
    bool has_mass = false;  ///< outgoing movement mass is positive
  };

  // Derived structures. The move_* arrays are indexed by movement state.
  std::vector<CellSampler> cells_;      ///< per source cell
  std::vector<double> move_prob_;       ///< alias acceptance thresholds
  std::vector<uint32_t> move_alias_;    ///< slice-local alias columns
  std::vector<CellId> move_target_;     ///< cell each movement state reaches
  std::vector<double> quit_prob_;       ///< per cell, Eq. 8 base
  std::vector<double> move_mass_;       ///< per cell: sum of outgoing f_ij
  AliasTable enter_;
  // Lazily (re)built from move_mass_ on first use after invalidation; see
  // SampleMoveMarginalCell for the (serial-only) mutability contract.
  mutable AliasTable move_marginal_;
  mutable bool move_marginal_stale_ = true;
  std::vector<double> quit_dist_;

  // Sync scratch (reused; no steady-state allocation).
  AliasTable::Worklists cell_worklists_;  ///< shared by every cell rebuild
  std::vector<uint8_t> cell_dirty_scratch_;
  std::vector<CellId> dirty_cells_scratch_;

  SamplerCacheStats stats_;
};

}  // namespace retrasyn

#endif  // RETRASYN_CORE_TRANSITION_SAMPLER_CACHE_H_
