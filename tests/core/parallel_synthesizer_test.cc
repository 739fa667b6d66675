// Tests for the multi-threaded synthesis path (the paper's future-work
// acceleration): correctness invariants must hold for any thread count, and
// results must be reproducible for a fixed thread count. The grid comes
// from RETRASYN_GRID_BACKEND, so the quadtree CI step covers it too.

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/synthesizer.h"
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

  CellStreamSet Run(int num_threads, uint32_t population, int64_t horizon,
                    ThreadPool* pool = nullptr) {
    SynthesizerConfig config;
    config.lambda = 40.0;
    config.num_threads = num_threads;
    Synthesizer synthesizer(states_, config);
    synthesizer.SetThreadPool(pool);
    Rng rng(5);
    synthesizer.Initialize(model_, population, 0, rng);
    for (int64_t t = 1; t < horizon; ++t) {
      synthesizer.Step(model_, population, t, rng);
    }
    return synthesizer.Snapshot(horizon);
  }

  std::unique_ptr<SpatialGrid> grid_owner_;
  const SpatialGrid& grid_;
  StateSpace states_;
  GlobalMobilityModel model_;
};

class ThreadCountTest : public ParallelSynthesizerTest,
                        public testing::WithParamInterface<int> {};

TEST_P(ThreadCountTest, InvariantsHoldForAnyThreadCount) {
  // Population large enough to actually engage the parallel path.
  const CellStreamSet out = Run(GetParam(), 12000, 10);
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

INSTANTIATE_TEST_SUITE_P(Threads, ThreadCountTest, testing::Values(1, 2, 4, 8));

TEST_F(ParallelSynthesizerTest, DeterministicForFixedThreadCount) {
  const CellStreamSet a = Run(4, 12000, 8);
  const CellStreamSet b = Run(4, 12000, 8);
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time);
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells);
  }
}

TEST_F(ParallelSynthesizerTest, PoolAndNoPoolAreByteIdentical) {
  // The determinism contract of the chunked phase: the chunk schedule is a
  // pure function of (seed, num_threads, work size), so executing the chunks
  // on a persistent pool — of any size — must produce the same bytes as
  // executing them inline with no pool at all.
  const CellStreamSet inline_run = Run(4, 12000, 8, /*pool=*/nullptr);
  for (int pool_size : {1, 2, 8}) {
    ThreadPool pool(pool_size);
    const CellStreamSet pooled = Run(4, 12000, 8, &pool);
    ASSERT_EQ(inline_run.streams().size(), pooled.streams().size())
        << "pool size " << pool_size;
    for (size_t i = 0; i < inline_run.streams().size(); ++i) {
      ASSERT_EQ(inline_run.streams()[i].enter_time,
                pooled.streams()[i].enter_time);
      ASSERT_EQ(inline_run.streams()[i].cells, pooled.streams()[i].cells)
          << "stream " << i << " pool size " << pool_size;
    }
  }
}

TEST_F(ParallelSynthesizerTest, PooledRunsDeterministicAcrossRepeats) {
  // Multi-thread determinism pin: fixed seed + fixed num_threads on a live
  // pool, run twice, byte-identical output.
  ThreadPool pool(4);
  const CellStreamSet a = Run(4, 12000, 8, &pool);
  const CellStreamSet b = Run(4, 12000, 8, &pool);
  ASSERT_EQ(a.streams().size(), b.streams().size());
  for (size_t i = 0; i < a.streams().size(); ++i) {
    EXPECT_EQ(a.streams()[i].enter_time, b.streams()[i].enter_time);
    EXPECT_EQ(a.streams()[i].cells, b.streams()[i].cells);
  }
}

TEST_F(ParallelSynthesizerTest, SmallPopulationsStaySerial) {
  // Below the per-thread work threshold the serial path is used even when
  // threads are configured; outputs must match the single-threaded run
  // exactly (identical RNG consumption).
  const CellStreamSet serial = Run(1, 500, 10);
  const CellStreamSet configured = Run(8, 500, 10);
  ASSERT_EQ(serial.streams().size(), configured.streams().size());
  for (size_t i = 0; i < serial.streams().size(); ++i) {
    EXPECT_EQ(serial.streams()[i].cells, configured.streams()[i].cells);
  }
}

TEST_F(ParallelSynthesizerTest, ParallelPreservesPopulationStatistics) {
  // The parallel path must sample from the same distributions: compare the
  // aggregate cell-visit histograms of serial vs 4-thread runs.
  const CellStreamSet serial = Run(1, 20000, 6);
  const CellStreamSet parallel = Run(4, 20000, 6);
  std::vector<double> h1(grid_.NumCells(), 0.0), h2(grid_.NumCells(), 0.0);
  for (const CellStream& s : serial.streams()) {
    for (CellId c : s.cells) ++h1[c];
  }
  for (const CellStream& s : parallel.streams()) {
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
