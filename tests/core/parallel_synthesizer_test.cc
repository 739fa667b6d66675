// Tests for the chunked synthesis pass (the paper's future-work
// acceleration): the chunk count is a function of the live-stream count
// alone, so the bytes are the same with no pool and with a pool of any size,
// and the invariants hold on every path. The grid comes from
// RETRASYN_GRID_BACKEND, so the quadtree CI step covers it too.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/synthesizer.h"
#include "core/transition_sampler_cache.h"
#include "geo/grid_factory.h"

namespace retrasyn {
namespace {

class ParallelSynthesizerTest : public testing::Test {
 protected:
  ParallelSynthesizerTest()
      : grid_owner_(MakeEnvGrid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 5)),
        grid_(*grid_owner_),
        states_(grid_),
        model_(states_) {
    std::vector<double> f(states_.size(), 0.0);
    Rng rng(77);
    for (CellId c = 0; c < grid_.NumCells(); ++c) {
      for (StateId s : states_.MoveStatesFrom(c)) {
        f[s] = rng.UniformDouble() * 0.02;
      }
      f[states_.EnterIndex(c)] = rng.UniformDouble() * 0.02;
      f[states_.QuitIndex(c)] = rng.UniformDouble() * 0.004;
    }
    model_.ReplaceAll(f);
  }

  CellStreamSet Run(uint32_t population, int64_t horizon,
                    ThreadPool* pool = nullptr, uint64_t seed = 5) {
    SynthesizerConfig config;
    config.lambda = 40.0;
    Synthesizer synthesizer(states_, config);
    synthesizer.SetThreadPool(pool);
    Rng rng(seed);
    synthesizer.Initialize(model_, population, 0, rng);
    for (int64_t t = 1; t < horizon; ++t) {
      synthesizer.Step(model_, population, t, rng);
    }
    return synthesizer.Snapshot(horizon);
  }

  static void ExpectSameStreams(const CellStreamSet& want,
                                const CellStreamSet& got) {
    ASSERT_EQ(want.streams().size(), got.streams().size());
    for (size_t i = 0; i < want.streams().size(); ++i) {
      ASSERT_EQ(want.streams()[i].enter_time, got.streams()[i].enter_time)
          << "stream " << i;
      ASSERT_EQ(want.streams()[i].cells, got.streams()[i].cells)
          << "stream " << i;
    }
  }

  /// One Step with quits and size adjustment off draws exactly one next
  /// cell per live stream. Checks that those draws come from the chunk rule:
  /// one chunk draws from the round RNG itself, more chunks from the round
  /// RNG's forks in chunk order; and that the round RNG ends where the rule
  /// leaves it.
  void ExpectStepFollowsChunkRule(uint32_t population, ThreadPool* pool) {
    SynthesizerConfig config;
    config.lambda = 40.0;
    config.use_quit = false;
    config.use_size_adjustment = false;
    Synthesizer synthesizer(states_, config);
    synthesizer.SetThreadPool(pool);
    Rng rng(9);
    synthesizer.Initialize(model_, population, 0, rng);
    std::vector<CellStream> before, finished;
    synthesizer.SaveCheckpointState(&before, &finished);

    TransitionSamplerCache cache(states_);
    cache.Sync(model_);
    Rng ref_rng = rng;
    const size_t n = before.size();
    const int chunks =
        static_cast<int>(std::max<size_t>(1, n / Synthesizer::kChunkStreams));
    ASSERT_EQ(Synthesizer::EffectiveChunks(n), chunks);
    std::vector<Rng> forks;
    if (chunks > 1) {
      for (int c = 0; c < chunks; ++c) forks.push_back(ref_rng.Fork());
    }
    const size_t chunk_size = (n + chunks - 1) / chunks;
    std::vector<CellId> want(n);
    for (size_t i = 0; i < n; ++i) {
      Rng& r = chunks > 1 ? forks[i / chunk_size] : ref_rng;
      want[i] = cache.SampleNextCell(before[i].cells.back(), r);
    }

    synthesizer.Step(model_, population, 1, rng);
    std::vector<CellStream> after;
    synthesizer.SaveCheckpointState(&after, &finished);
    ASSERT_EQ(after.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(after[i].cells.back(), want[i]) << "stream " << i;
    }
    EXPECT_EQ(rng.state(), ref_rng.state());
  }

  std::unique_ptr<SpatialGrid> grid_owner_;
  const SpatialGrid& grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

TEST_F(ParallelSynthesizerTest, ChunkCountDependsOnTheWorkSizeAlone) {
  EXPECT_EQ(Synthesizer::EffectiveChunks(0), 1);
  EXPECT_EQ(Synthesizer::EffectiveChunks(1), 1);
  EXPECT_EQ(Synthesizer::EffectiveChunks(2 * Synthesizer::kChunkStreams - 1),
            1);
  EXPECT_EQ(Synthesizer::EffectiveChunks(2 * Synthesizer::kChunkStreams), 2);
  EXPECT_EQ(Synthesizer::EffectiveChunks(12000), 5);
  EXPECT_EQ(Synthesizer::EffectiveChunks(100000), 48);
}

class PoolSizeTest : public ParallelSynthesizerTest,
                     public testing::WithParamInterface<int> {};

TEST_P(PoolSizeTest, InvariantsHoldForAnyPoolSize) {
  // 12000 streams: 5 chunks, so a pool really runs them in parallel.
  const int pool_size = GetParam();
  std::unique_ptr<ThreadPool> pool;
  if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
  const CellStreamSet out = Run(12000, 10, pool.get());
  EXPECT_GT(out.streams().size(), 0u);
  for (const CellStream& s : out.streams()) {
    EXPECT_GE(s.enter_time, 0);
    EXPECT_LE(s.end_time(), 10);
    for (size_t i = 1; i < s.cells.size(); ++i) {
      EXPECT_TRUE(grid_.AreNeighbors(s.cells[i - 1], s.cells[i]));
    }
  }
  // Size adjustment still exact at every timestamp.
  for (int64_t t = 0; t < 10; ++t) {
    EXPECT_EQ(out.ActiveCount(t), 12000u) << "t=" << t;
  }
}

// 0 = no pool.
INSTANTIATE_TEST_SUITE_P(Pools, PoolSizeTest, testing::Values(0, 1, 2, 4, 8));

TEST_F(ParallelSynthesizerTest, PoolAndNoPoolAreByteIdentical) {
  // The chunk schedule is a pure function of (seed, work size), so running
  // the chunks on a persistent pool of any size must produce the bytes of
  // running them inline with no pool at all.
  const CellStreamSet inline_run = Run(12000, 8, /*pool=*/nullptr);
  for (int pool_size : {1, 2, 4, 8}) {
    SCOPED_TRACE(pool_size);
    ThreadPool pool(pool_size);
    ExpectSameStreams(inline_run, Run(12000, 8, &pool));
  }
}

TEST_F(ParallelSynthesizerTest, PooledRunsDeterministicAcrossRepeats) {
  // Fixed seed on a live pool, run twice: byte-identical output.
  ThreadPool pool(4);
  ExpectSameStreams(Run(12000, 8, &pool), Run(12000, 8, &pool));
}

TEST_F(ParallelSynthesizerTest, SmallPopulationsStaySerial) {
  // Below two chunks' worth of streams there is one chunk, and it draws from
  // the round RNG itself, with no pool and on any pool.
  for (int pool_size : {0, 1, 4}) {
    SCOPED_TRACE(pool_size);
    std::unique_ptr<ThreadPool> pool;
    if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
    ExpectStepFollowsChunkRule(500, pool.get());
    ExpectStepFollowsChunkRule(2 * Synthesizer::kChunkStreams - 1,
                               pool.get());
  }
}

TEST_F(ParallelSynthesizerTest, LargePopulationsDrawFromChunkForks) {
  // From two chunks on, chunk c draws from the c-th fork of the round RNG,
  // with no pool and on any pool.
  for (int pool_size : {0, 1, 4}) {
    SCOPED_TRACE(pool_size);
    std::unique_ptr<ThreadPool> pool;
    if (pool_size > 0) pool = std::make_unique<ThreadPool>(pool_size);
    ExpectStepFollowsChunkRule(2 * Synthesizer::kChunkStreams, pool.get());
    ExpectStepFollowsChunkRule(9000, pool.get());
  }
}

TEST_F(ParallelSynthesizerTest, ChunkedRunsPreservePopulationStatistics) {
  // The forked chunks must sample from the same distributions as one
  // stream: compare the aggregate cell-visit histograms of one-chunk runs
  // (ten seeds of 2000 streams) with a 9-chunk run of 20000 streams.
  std::vector<double> h1(grid_.NumCells(), 0.0), h2(grid_.NumCells(), 0.0);
  for (uint64_t seed = 100; seed < 110; ++seed) {
    const CellStreamSet one_chunk = Run(2000, 6, nullptr, seed);
    for (const CellStream& s : one_chunk.streams()) {
      for (CellId c : s.cells) ++h1[c];
    }
  }
  ThreadPool pool(4);
  const CellStreamSet chunked = Run(20000, 6, &pool);
  for (const CellStream& s : chunked.streams()) {
    for (CellId c : s.cells) ++h2[c];
  }
  double t1 = 0, t2 = 0;
  for (size_t c = 0; c < h1.size(); ++c) {
    t1 += h1[c];
    t2 += h2[c];
  }
  ASSERT_GT(t1, 0);
  ASSERT_GT(t2, 0);
  for (size_t c = 0; c < h1.size(); ++c) {
    EXPECT_NEAR(h1[c] / t1, h2[c] / t2, 0.01) << "cell " << c;
  }
}

}  // namespace
}  // namespace retrasyn
