// The synthesizer's block-arena stream store, checked at block boundaries
// against a plain std::vector<CellStream> reference that runs the same round
// algorithm (Eq. 8 quits, the exponential size-adjustment race, the commit
// and deficit spawns) with the same RNG draws. Streams of length 1, B-1, B,
// B+1 and 2B+1 (B = Synthesizer::kBlockCells) go through Step, Snapshot,
// TakeFinished, SaveCheckpointState and Restore at 1 and 4 chunks. The grid
// comes from RETRASYN_GRID_BACKEND.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/synthesizer.h"
#include "core/transition_sampler_cache.h"
#include "geo/grid_factory.h"

namespace retrasyn {
namespace {

constexpr uint32_t kB = Synthesizer::kBlockCells;

/// The round algorithm over one std::vector<CellStream> per set: the layout
/// the block arena replaced. Chunking mirrors SynthesizerConfig::num_threads.
class VectorReference {
 public:
  VectorReference(const StateSpace& states, const SynthesizerConfig& config)
      : states_(states), config_(config), cache_(states) {}

  void Restore(std::vector<CellStream> live,
               std::vector<CellStream> finished) {
    live_ = std::move(live);
    finished_ = std::move(finished);
  }

  void Step(const GlobalMobilityModel& model, uint32_t target, int64_t t,
            Rng& rng) {
    cache_.Sync(model);
    const size_t n = live_.size();
    int chunks = 1;
    if (config_.num_threads > 1) {
      chunks = std::min<int>(config_.num_threads,
                             static_cast<int>(std::max<size_t>(1, n / 2048)));
    }
    std::vector<Rng> chunk_rngs;
    if (chunks > 1) {
      for (int c = 0; c < chunks; ++c) chunk_rngs.push_back(rng.Fork());
    }
    std::vector<uint8_t> quit(n, 0);
    std::vector<CellId> proposed(n);
    const size_t chunk_size = (n + chunks - 1) / chunks;
    for (size_t i = 0; i < n; ++i) {
      Rng& r = chunks > 1 ? chunk_rngs[i / chunk_size] : rng;
      const CellId at = live_[i].cells.back();
      if (config_.use_quit) {
        const double len = static_cast<double>(live_[i].cells.size());
        if (r.Bernoulli(std::min(
                1.0, len / config_.lambda * cache_.QuitProbability(at)))) {
          quit[i] = 1;
          continue;
        }
      }
      proposed[i] = cache_.SampleNextCell(at, r);
    }
    std::vector<CellStream> survivors;
    std::vector<CellId> survivor_proposals;
    for (size_t i = 0; i < n; ++i) {
      if (quit[i]) {
        finished_.push_back(std::move(live_[i]));
      } else {
        survivors.push_back(std::move(live_[i]));
        survivor_proposals.push_back(proposed[i]);
      }
    }
    live_ = std::move(survivors);
    proposed = std::move(survivor_proposals);

    uint32_t deficit = 0;
    if (live_.size() > target) {
      const std::vector<double>& quit_dist = cache_.QuitDistribution();
      std::vector<std::pair<double, double>> race(live_.size());
      for (size_t i = 0; i < live_.size(); ++i) {
        const double w =
            quit_dist.empty() ? 0.0 : quit_dist[live_[i].cells.back()];
        const double u = rng.UniformDouble();
        race[i] = w > 0.0 ? std::make_pair(-std::log1p(-u) / w, 0.0)
                          : std::make_pair(
                                std::numeric_limits<double>::infinity(), u);
      }
      std::vector<size_t> victims(live_.size());
      for (size_t i = 0; i < victims.size(); ++i) victims[i] = i;
      const size_t surplus = live_.size() - target;
      std::nth_element(
          victims.begin(), victims.begin() + surplus, victims.end(),
          [&](size_t a, size_t b) { return race[a] < race[b]; });
      victims.resize(surplus);
      std::sort(victims.rbegin(), victims.rend());
      for (size_t v : victims) {
        finished_.push_back(std::move(live_[v]));
        live_[v] = std::move(live_.back());
        live_.pop_back();
        proposed[v] = proposed.back();
        proposed.pop_back();
      }
    } else {
      deficit = target - static_cast<uint32_t>(live_.size());
    }
    for (size_t i = 0; i < live_.size(); ++i) {
      live_[i].cells.push_back(proposed[i]);
    }
    for (uint32_t i = 0; i < deficit; ++i) {
      CellId cell = cache_.SampleEnterCell(rng);
      if (cell >= states_.num_cells()) {
        cell = static_cast<CellId>(rng.UniformInt(states_.num_cells()));
      }
      live_.push_back(CellStream{t, {cell}});
    }
  }

  std::vector<CellStream> TakeFinished() { return std::move(finished_); }
  const std::vector<CellStream>& live() const { return live_; }
  const std::vector<CellStream>& finished() const { return finished_; }

 private:
  const StateSpace& states_;
  SynthesizerConfig config_;
  TransitionSamplerCache cache_;
  std::vector<CellStream> live_;
  std::vector<CellStream> finished_;
};

void ExpectSameStreams(const std::vector<CellStream>& want,
                       const std::vector<CellStream>& got,
                       const std::string& where) {
  ASSERT_EQ(want.size(), got.size()) << where;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].enter_time, got[i].enter_time) << where << " #" << i;
    ASSERT_EQ(want[i].cells, got[i].cells) << where << " #" << i;
  }
}

/// Blocks a stream set occupies in the arena.
size_t BlocksFor(const std::vector<CellStream>& streams) {
  size_t blocks = 0;
  for (const CellStream& s : streams) blocks += (s.length() + kB - 1) / kB;
  return blocks;
}

class StreamStoreTest : public testing::TestWithParam<int> {
 protected:
  StreamStoreTest()
      : grid_owner_(MakeEnvGrid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 4)),
        grid_(*grid_owner_),
        states_(grid_),
        model_(states_) {
    std::vector<double> f(states_.size(), 0.0);
    Rng rng(17);
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      for (StateId s : states_.MoveStatesFrom(c)) {
        f[s] = 0.01 + rng.UniformDouble() * 0.1;
      }
      f[states_.EnterIndex(c)] = 0.01 + rng.UniformDouble() * 0.1;
      f[states_.QuitIndex(c)] = 0.02 + rng.UniformDouble() * 0.05;
    }
    model_.ReplaceAll(f);
  }

  SynthesizerConfig Config() const {
    SynthesizerConfig config;
    config.lambda = 12.0;
    config.num_threads = GetParam();
    return config;
  }

  /// \p count streams whose lengths cycle through 1, B-1, B, B+1, 2B+1, all
  /// ending at timestamp \p end (exclusive).
  std::vector<CellStream> BoundaryStreams(size_t count, int64_t end,
                                          Rng& rng) const {
    const uint32_t lengths[] = {1, kB - 1, kB, kB + 1, 2 * kB + 1};
    std::vector<CellStream> streams(count);
    for (size_t i = 0; i < count; ++i) {
      const uint32_t len = lengths[i % 5];
      streams[i].enter_time = end - len;
      for (uint32_t k = 0; k < len; ++k) {
        streams[i].cells.push_back(
            static_cast<CellId>(rng.UniformInt(grid_.NumCells())));
      }
    }
    return streams;
  }

  std::unique_ptr<SpatialGrid> grid_owner_;
  const SpatialGrid& grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

TEST_P(StreamStoreTest, RoundTripsBoundaryLengthsVerbatim) {
  Rng rng(3);
  const std::vector<CellStream> live = BoundaryStreams(50, 40, rng);
  const std::vector<CellStream> finished = BoundaryStreams(25, 35, rng);
  Synthesizer syn(states_, Config());
  syn.Restore(live, finished, /*total_points=*/1234, /*initialized=*/true);
  EXPECT_EQ(syn.total_points(), 1234u);
  EXPECT_EQ(syn.arena_blocks() - syn.arena_free_blocks(),
            BlocksFor(live) + BlocksFor(finished));

  std::vector<CellStream> saved_live, saved_finished;
  syn.SaveCheckpointState(&saved_live, &saved_finished);
  ExpectSameStreams(live, saved_live, "saved live");
  ExpectSameStreams(finished, saved_finished, "saved finished");

  const CellStreamSet snap = syn.Snapshot(40);
  std::vector<CellStream> both = finished;
  both.insert(both.end(), live.begin(), live.end());
  ExpectSameStreams(both, snap.streams(), "snapshot");

  ExpectSameStreams(finished, syn.TakeFinished(), "taken");
  EXPECT_EQ(syn.num_finished(), 0u);
  EXPECT_EQ(syn.arena_blocks() - syn.arena_free_blocks(), BlocksFor(live));
  ExpectSameStreams(live, syn.Snapshot(40).streams(), "after take");
}

TEST_P(StreamStoreTest, StepsMatchTheVectorReference) {
  // 9000 streams: 4 threads really run 4 chunks of the fused pass.
  constexpr size_t kStreams = 9000;
  constexpr int64_t kStart = 40;
  Rng data_rng(5);
  const std::vector<CellStream> live = BoundaryStreams(kStreams, kStart,
                                                       data_rng);
  const std::vector<CellStream> finished = BoundaryStreams(100, 35, data_rng);
  ThreadPool pool(2);
  auto syn = std::make_unique<Synthesizer>(states_, Config());
  syn->SetThreadPool(&pool);
  syn->Restore(live, finished, /*total_points=*/0, /*initialized=*/true);
  VectorReference ref(states_, Config());
  ref.Restore(live, finished);

  Rng rng(11);
  Rng ref_rng = rng;
  // Shrinking targets force size-adjustment victims, growing ones spawns.
  const uint32_t targets[] = {9000, 8500, 9500, 9500, 8200, 9000, 9000, 8800};
  int64_t t = kStart;
  for (int round = 0; round < 40; ++round, ++t) {
    const uint32_t target = targets[round % 8];
    syn->Step(model_, target, t, rng);
    ref.Step(model_, target, t, ref_rng);
    const std::string where = "t=" + std::to_string(t);
    std::vector<CellStream> got_live, got_finished;
    syn->SaveCheckpointState(&got_live, &got_finished);
    ExpectSameStreams(ref.live(), got_live, where + " live");
    ExpectSameStreams(ref.finished(), got_finished, where + " finished");
    EXPECT_EQ(syn->arena_blocks() - syn->arena_free_blocks(),
              BlocksFor(got_live) + BlocksFor(got_finished))
        << where;
    if (round % 10 == 9) {
      ExpectSameStreams(ref.TakeFinished(), syn->TakeFinished(),
                        where + " taken");
    }
    if (round == 25) {
      // A restored store continues with the same draws.
      auto restored = std::make_unique<Synthesizer>(states_, Config());
      restored->SetThreadPool(&pool);
      restored->Restore(got_live, got_finished, syn->total_points(),
                        /*initialized=*/true);
      syn = std::move(restored);
    }
  }
  std::vector<CellStream> both = ref.finished();
  both.insert(both.end(), ref.live().begin(), ref.live().end());
  ExpectSameStreams(both, syn->Snapshot(t).streams(), "final snapshot");
}

TEST_P(StreamStoreTest, ArenaStaysFlatWhenHistoryIsTaken) {
  Synthesizer syn(states_, Config());
  ThreadPool pool(2);
  syn.SetThreadPool(&pool);
  Rng rng(23);
  syn.Initialize(model_, 10000, 0, rng);
  size_t blocks_at_warm = 0;
  for (int64_t t = 1; t <= 200; ++t) {
    syn.Step(model_, 10000, t, rng);
    if (t % 10 == 0) syn.TakeFinished();
    if (t == 50) blocks_at_warm = syn.arena_blocks();
  }
  EXPECT_GT(blocks_at_warm, 0u);
  EXPECT_EQ(syn.arena_blocks(), blocks_at_warm);
  // Every block not on the free list belongs to a stream still held.
  std::vector<CellStream> live, finished;
  syn.SaveCheckpointState(&live, &finished);
  EXPECT_EQ(syn.arena_blocks() - syn.arena_free_blocks(),
            BlocksFor(live) + BlocksFor(finished));
}

INSTANTIATE_TEST_SUITE_P(Chunks, StreamStoreTest, testing::Values(1, 4));

}  // namespace
}  // namespace retrasyn
