// TransitionSamplerCache: the cached O(1) samplers must (a) draw from
// exactly the distributions the model derives linearly, (b) re-derive only
// what a DMU-selective update touched, and (c) rebuild fully on ReplaceAll
// or a collapsed dirty log. The grid comes from RETRASYN_GRID_BACKEND, so
// the quadtree CI step runs every case over variable-degree cells too.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/alias_table.h"
#include "common/rng.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "core/transition_sampler_cache.h"
#include "geo/grid_factory.h"
#include "geo/state_space.h"
#include "testing/chi_square.h"

namespace retrasyn {
namespace {

std::vector<double> RandomFrequencies(const StateSpace& states,
                                      uint64_t seed) {
  Rng rng(seed);
  std::vector<double> f(states.size());
  for (double& x : f) x = rng.UniformDouble() * 0.02;
  return f;
}

/// Chi-square of cached next-cell draws out of \p from against the exact
/// movement weights max(0, f_ij) the linear scan draws from, at the upper
/// critical value z standard deviations out (3.06: about the 99.9th
/// percentile of one test; larger z keeps a family of many cells at the same
/// level).
void ExpectNextCellMatchesLinear(const StateSpace& states,
                                 const GlobalMobilityModel& model,
                                 const TransitionSamplerCache& cache,
                                 CellId from, double z = 3.06) {
  const auto& nbrs = states.grid().Neighbors(from);
  const StateId offset = states.MoveOffset(from);
  double total = 0.0;
  std::vector<double> weights(nbrs.size());
  for (size_t i = 0; i < nbrs.size(); ++i) {
    weights[i] = std::max(0.0, model.frequency(offset + i));
    total += weights[i];
  }
  ASSERT_GT(total, 0.0);
  const int n = 120000;
  Rng rng(200 + from);
  std::vector<int> counts(states.num_cells(), 0);
  for (int i = 0; i < n; ++i) ++counts[cache.SampleNextCell(from, rng)];
  double chi2 = 0.0;
  int dof = -1;
  int drawn = 0;
  for (size_t i = 0; i < nbrs.size(); ++i) {
    const double expected = n * weights[i] / total;
    const int got = counts[nbrs[i]];
    drawn += got;
    if (expected == 0.0) {
      EXPECT_EQ(got, 0) << "cell " << from << " neighbor " << nbrs[i];
      continue;
    }
    chi2 += (got - expected) * (got - expected) / expected;
    ++dof;
  }
  EXPECT_EQ(drawn, n) << "cell " << from << " drew a non-neighbor";
  if (dof < 1) return;
  EXPECT_LT(chi2, ChiSquareCritical(dof, z)) << "cell " << from << " dof "
                                             << dof;
}

class TransitionSamplerCacheTest : public testing::Test {
 protected:
  TransitionSamplerCacheTest()
      : grid_owner_(MakeEnvGrid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 6)),
        grid_(*grid_owner_),
        states_(grid_),
        model_(states_) {}

  std::vector<double> RandomFrequencies(uint64_t seed) {
    return retrasyn::RandomFrequencies(states_, seed);
  }

  std::unique_ptr<SpatialGrid> grid_owner_;
  const SpatialGrid& grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

TEST_F(TransitionSamplerCacheTest, FirstSyncIsAFullRebuild) {
  model_.ReplaceAll(RandomFrequencies(1));
  TransitionSamplerCache cache(states_);
  EXPECT_FALSE(cache.synced_once());
  cache.Sync(model_);
  EXPECT_TRUE(cache.synced_once());
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);
  EXPECT_EQ(cache.stats().cell_rebuilds, grid_.NumCells());

  // Re-syncing an unchanged model is free.
  cache.Sync(model_);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().syncs, 1u);
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);
}

TEST_F(TransitionSamplerCacheTest, SelectiveUpdateRebuildsOnlyTouchedCells) {
  model_.ReplaceAll(RandomFrequencies(2));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  const uint64_t cells_after_full = cache.stats().cell_rebuilds;

  // Touch one movement state of cell 7 and the enter state of cell 3.
  const CellId move_cell = 7, enter_cell = 3;
  std::vector<StateId> selected{states_.MoveOffset(move_cell),
                                states_.EnterIndex(enter_cell)};
  std::vector<double> fresh = RandomFrequencies(3);
  model_.UpdateStates(selected, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 1u);  // still only the initial one
  EXPECT_EQ(cache.stats().cell_rebuilds, cells_after_full + 1);
  EXPECT_EQ(cache.stats().enter_rebuilds, 2u);
  EXPECT_EQ(cache.stats().quit_rebuilds, 1u);  // no quit state touched

  // A quit-state update re-derives that cell's Eq. 8 term and the global
  // quitting distribution, but not the enter table.
  model_.UpdateStates({states_.QuitIndex(11)}, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().cell_rebuilds, cells_after_full + 2);
  EXPECT_EQ(cache.stats().enter_rebuilds, 2u);
  EXPECT_EQ(cache.stats().quit_rebuilds, 2u);
}

TEST_F(TransitionSamplerCacheTest, ReplaceAllForcesFullRebuild) {
  model_.ReplaceAll(RandomFrequencies(4));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  model_.ReplaceAll(RandomFrequencies(5));
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 2u);
}

TEST_F(TransitionSamplerCacheTest, OverflowingDirtyLogCollapsesToFullRebuild) {
  model_.ReplaceAll(RandomFrequencies(6));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  // Push more dirty states than |S| without syncing: the model's log
  // collapses and the next sync is a (single) full rebuild.
  std::vector<StateId> all(states_.size());
  for (StateId s = 0; s < states_.size(); ++s) all[s] = s;
  const std::vector<double> fresh = RandomFrequencies(7);
  model_.UpdateStates(all, fresh);
  model_.UpdateStates(all, fresh);
  cache.Sync(model_);
  EXPECT_EQ(cache.stats().full_rebuilds, 2u);
  EXPECT_EQ(model_.dirty_log().size(), 0u);
}

TEST_F(TransitionSamplerCacheTest, CachedValuesTrackSelectiveUpdates) {
  model_.ReplaceAll(RandomFrequencies(8));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    EXPECT_DOUBLE_EQ(cache.QuitProbability(c), model_.QuitProbability(c));
  }
  EXPECT_EQ(cache.QuitDistribution(), model_.QuitDistribution());

  // Selectively zero one cell's quit state; the cached views must follow.
  std::vector<double> fresh = model_.frequencies();
  fresh[states_.QuitIndex(5)] = 0.0;
  model_.UpdateStates({states_.QuitIndex(5)}, fresh);
  cache.Sync(model_);
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    EXPECT_DOUBLE_EQ(cache.QuitProbability(c), model_.QuitProbability(c));
  }
  EXPECT_EQ(cache.QuitDistribution(), model_.QuitDistribution());
}

TEST_F(TransitionSamplerCacheTest, NextCellSamplerMatchesLinearDistribution) {
  model_.ReplaceAll(RandomFrequencies(9));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  // A few representative cells (on the uniform grid: corner, edge, interior).
  for (CellId from : {CellId{0}, CellId{3}, CellId{14}}) {
    ExpectNextCellMatchesLinear(states_, model_, cache, from);
  }
}

TEST(TransitionSamplerCacheQuadtreeTest,
     NextCellSamplerMatchesLinearDistribution) {
  // Quadtree leaves have variable degree, so neighbouring flat slices have
  // different lengths; every cell's slice must still draw its own
  // distribution. Some movement states are zeroed and one cell carries a
  // single positive weight, so zero columns and degree-1 mass are covered.
  auto grid = MakeSpatialGrid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 6,
                              GridBackend::kQuadtree);
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  const StateSpace states(*grid.value());
  GlobalMobilityModel model(states);
  std::vector<double> f = RandomFrequencies(states, 9);
  for (StateId s = 0; s < states.num_move_states(); s += 4) f[s] = 0.0;
  const CellId single = states.num_cells() / 2;
  const StateId single_offset = states.MoveOffset(single);
  const size_t single_degree = grid.value()->Neighbors(single).size();
  for (size_t i = 0; i < single_degree; ++i) f[single_offset + i] = 0.0;
  f[single_offset + single_degree - 1] = 0.01;
  model.ReplaceAll(f);
  TransitionSamplerCache cache(states);
  cache.Sync(model);

  size_t min_degree = SIZE_MAX, max_degree = 0;
  for (CellId c = 0; c < states.num_cells(); ++c) {
    const std::vector<CellId>& nbrs = grid.value()->Neighbors(c);
    min_degree = std::min(min_degree, nbrs.size());
    max_degree = std::max(max_degree, nbrs.size());
    // z = 4.0 holds the whole family of ~34 cells at about the 0.1% level
    // (Bonferroni).
    ExpectNextCellMatchesLinear(states, model, cache, c, /*z=*/4.0);
    // Exact: the flat slice draws exactly what a stand-alone table over the
    // same weights draws.
    AliasTable table;
    table.Build(model.frequencies().data() + states.MoveOffset(c),
                nbrs.size());
    ASSERT_TRUE(table.has_mass()) << "cell " << c;
    Rng a(500 + c), b(500 + c);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(nbrs[table.Sample(a)], cache.SampleNextCell(c, b))
          << "cell " << c << " draw " << i;
    }
  }
  EXPECT_LT(min_degree, max_degree) << "quadtree should vary the degree";
}

TEST_F(TransitionSamplerCacheTest, ZeroMassCellDwellsInPlace) {
  // A model with zero movement mass out of cell 0 must dwell, exactly like
  // the linear path's sentinel fallback.
  std::vector<double> f(states_.size(), 0.01);
  const StateId offset = states_.MoveOffset(0);
  for (size_t i = 0; i < grid_.Neighbors(0).size(); ++i) f[offset + i] = 0.0;
  model_.ReplaceAll(f);
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  Rng rng(17);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(cache.SampleNextCell(0, rng), 0u);
}

TEST_F(TransitionSamplerCacheTest, EnterSamplerMatchesEnterDistribution) {
  model_.ReplaceAll(RandomFrequencies(10));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  const std::vector<double> enter = model_.EnterDistribution();
  Rng rng(19);
  const int n = 200000;
  std::vector<int> counts(grid_.NumCells(), 0);
  for (int i = 0; i < n; ++i) {
    const CellId c = cache.SampleEnterCell(rng);
    ASSERT_LT(c, grid_.NumCells());
    ++counts[c];
  }
  double chi2 = 0.0;
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    const double expected = n * enter[c];
    if (expected < 1.0) continue;
    chi2 += (counts[c] - expected) * (counts[c] - expected) / expected;
  }
  // dof ~ 35; 99.9th percentile ~ 66.6.
  EXPECT_LT(chi2, 66.6);
}

TEST_F(TransitionSamplerCacheTest, MoveMarginalSamplerMatchesExactPmf) {
  // The random-init (NoEQ, baselines) spawn path draws a start cell with
  // probability proportional to its clamped outgoing movement mass,
  // sum_j max(0, f_ij). Negative estimates count as zero, and a cell with no
  // positive outgoing mass is never drawn.
  std::vector<double> f = RandomFrequencies(31);
  for (CellId c = 0; c < grid_.NumCells(); c += 3) {
    f[states_.MoveOffset(c)] = -0.05;
  }
  const CellId empty = grid_.NumCells() - 1;
  for (StateId s : states_.MoveStatesFrom(empty)) f[s] = -0.01;
  model_.ReplaceAll(f);
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);

  std::vector<double> pmf(grid_.NumCells(), 0.0);
  double total = 0.0;
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    for (StateId s : states_.MoveStatesFrom(c)) {
      pmf[c] += std::max(0.0, model_.frequency(s));
    }
    total += pmf[c];
  }
  ASSERT_GT(total, 0.0);
  ASSERT_EQ(pmf[empty], 0.0);

  const int n = 200000;
  Rng rng(37);
  std::vector<int> counts(grid_.NumCells(), 0);
  for (int i = 0; i < n; ++i) {
    const CellId c = cache.SampleMoveMarginalCell(rng);
    ASSERT_LT(c, grid_.NumCells());
    ++counts[c];
  }
  double chi2 = 0.0;
  int dof = -1;
  for (CellId c = 0; c < grid_.NumCells(); ++c) {
    const double expected = n * pmf[c] / total;
    if (expected == 0.0) {
      EXPECT_EQ(counts[c], 0) << "cell " << c << " has no movement mass";
      continue;
    }
    chi2 += (counts[c] - expected) * (counts[c] - expected) / expected;
    ++dof;
  }
  ASSERT_GE(dof, 1);
  EXPECT_LT(chi2, ChiSquareCritical(dof, 3.06)) << "dof " << dof;
}

TEST_F(TransitionSamplerCacheTest, NoMassSentinelsMirrorDiscreteContract) {
  // Empty model: every sampler reports "no mass" the way Discrete does, so
  // callers keep their uniform fallbacks.
  model_.ReplaceAll(std::vector<double>(states_.size(), 0.0));
  TransitionSamplerCache cache(states_);
  cache.Sync(model_);
  Rng rng(23);
  EXPECT_EQ(cache.SampleEnterCell(rng), grid_.NumCells());
  EXPECT_EQ(cache.SampleMoveMarginalCell(rng), grid_.NumCells());
  EXPECT_EQ(cache.SampleNextCell(4, rng), 4u);
  for (double q : cache.QuitDistribution()) EXPECT_EQ(q, 0.0);
}

TEST_F(TransitionSamplerCacheTest, SpawnDoesNotRederivePerStream) {
  // Satellite regression: Spawn used to recompute the O(|C|) entering
  // distribution for every spawned stream. With the cache, spawning any
  // number of streams triggers at most the initial full derivation — the
  // enter table is rebuilt once per model change, never per stream.
  model_.ReplaceAll(RandomFrequencies(11));
  SynthesizerConfig config;
  config.lambda = 20.0;
  Synthesizer synthesizer(states_, config);
  Rng rng(29);
  synthesizer.Initialize(model_, 5000, 0, rng);
  EXPECT_EQ(synthesizer.cache_stats().enter_rebuilds, 1u);
  EXPECT_EQ(synthesizer.cache_stats().full_rebuilds, 1u);

  // Steps without model changes derive nothing further, regardless of how
  // many points are sampled.
  for (int64_t t = 1; t <= 5; ++t) {
    synthesizer.Step(model_, 5000, t, rng);
  }
  EXPECT_EQ(synthesizer.cache_stats().enter_rebuilds, 1u);
  EXPECT_EQ(synthesizer.cache_stats().cell_rebuilds, grid_.NumCells());
}

}  // namespace
}  // namespace retrasyn
