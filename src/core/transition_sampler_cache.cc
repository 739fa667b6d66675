#include "core/transition_sampler_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace retrasyn {

TransitionSamplerCache::TransitionSamplerCache(const StateSpace& states)
    : states_(&states),
      cells_(states.num_cells()),
      move_prob_(states.num_move_states(), 0.0),
      move_alias_(states.num_move_states(), 0),
      move_target_(states.num_move_states()),
      quit_prob_(states.num_cells(), 0.0),
      move_mass_(states.num_cells(), 0.0),
      quit_dist_(states.num_cells(), 0.0),
      cell_dirty_scratch_(states.num_cells(), 0) {
  const SpatialGrid& grid = states.grid();
  for (CellId c = 0; c < states.num_cells(); ++c) {
    const std::vector<CellId>& nbrs = grid.Neighbors(c);
    CellSampler& cell = cells_[c];
    cell.offset = states.MoveOffset(c);
    cell.degree = static_cast<uint32_t>(nbrs.size());
    std::copy(nbrs.begin(), nbrs.end(), move_target_.begin() + cell.offset);
  }
}

void TransitionSamplerCache::RebuildCell(const GlobalMobilityModel& model,
                                         CellId c) {
  CellSampler& cell = cells_[c];
  // The cell's movement frequencies are contiguous in the model; BuildSlice
  // clamps negatives to zero exactly as max(0, f_ij) does.
  const double mass = AliasTable::BuildSlice(
      model.frequencies().data() + cell.offset, cell.degree,
      move_prob_.data() + cell.offset, move_alias_.data() + cell.offset,
      cell_worklists_);
  cell.has_mass = mass > 0.0;
  move_mass_[c] = mass;
  const double quit = std::max(0.0, model.frequency(states_->QuitIndex(c)));
  const double total = mass + quit;
  quit_prob_[c] = total > 0.0 ? quit / total : 0.0;
  ++stats_.cell_rebuilds;
}

void TransitionSamplerCache::RebuildEnter(const GlobalMobilityModel& model) {
  // Entering states are contiguous too: [EnterIndex(0), +|C|).
  enter_.Build(model.frequencies().data() + states_->EnterIndex(0),
               states_->num_cells());
  ++stats_.enter_rebuilds;
}

void TransitionSamplerCache::RebuildQuitDistribution(
    const GlobalMobilityModel& model) {
  const uint32_t num_cells = states_->num_cells();
  double total = 0.0;
  for (CellId c = 0; c < num_cells; ++c) {
    const double f = std::max(0.0, model.frequency(states_->QuitIndex(c)));
    quit_dist_[c] = f;
    total += f;
  }
  if (total > 0.0) {
    for (double& d : quit_dist_) d /= total;
  }
  ++stats_.quit_rebuilds;
}

void TransitionSamplerCache::RebuildAll(const GlobalMobilityModel& model) {
  const uint32_t num_cells = states_->num_cells();
  for (CellId c = 0; c < num_cells; ++c) RebuildCell(model, c);
  RebuildEnter(model);
  RebuildQuitDistribution(model);
  move_marginal_stale_ = true;
  ++stats_.full_rebuilds;
}

void TransitionSamplerCache::Sync(const GlobalMobilityModel& model) {
  RETRASYN_CHECK(&model.states() == states_);
  if (synced_once_ && synced_version_ == model.version()) return;
  ++stats_.syncs;

  if (!synced_once_ || synced_replace_version_ != model.replace_version()) {
    RebuildAll(model);
    synced_once_ = true;
    synced_version_ = model.version();
    synced_replace_version_ = model.replace_version();
    dirty_log_consumed_ = model.dirty_log().size();
    return;
  }

  // Incremental: classify the new tail of the dirty log into affected
  // derived structures, then rebuild each touched piece once.
  const std::vector<StateId>& log = model.dirty_log();
  RETRASYN_DCHECK(dirty_log_consumed_ <= log.size());
  bool enter_dirty = false;
  bool quit_dirty = false;
  bool marginal_dirty = false;
  dirty_cells_scratch_.clear();
  for (size_t i = dirty_log_consumed_; i < log.size(); ++i) {
    const StateId s = log[i];
    if (states_->IsMove(s)) {
      const CellId c = states_->Decode(s).from;
      if (!cell_dirty_scratch_[c]) {
        cell_dirty_scratch_[c] = 1;
        dirty_cells_scratch_.push_back(c);
      }
      marginal_dirty = true;
    } else if (states_->IsEnter(s)) {
      enter_dirty = true;
    } else {
      // Quit state of cell c: feeds both the global quitting distribution and
      // the cell's Eq. 8 denominator.
      const CellId c = s - states_->QuitIndex(0);
      if (!cell_dirty_scratch_[c]) {
        cell_dirty_scratch_[c] = 1;
        dirty_cells_scratch_.push_back(c);
      }
      quit_dirty = true;
    }
  }
  for (CellId c : dirty_cells_scratch_) {
    RebuildCell(model, c);
    cell_dirty_scratch_[c] = 0;
  }
  if (enter_dirty) RebuildEnter(model);
  if (quit_dirty) RebuildQuitDistribution(model);
  // The O(|C|) marginal table is only marked stale here; configs that never
  // draw from it (random_init=false) never rebuild it.
  if (marginal_dirty) move_marginal_stale_ = true;

  synced_version_ = model.version();
  dirty_log_consumed_ = log.size();
}

}  // namespace retrasyn
