// Hot-path microbenchmarks (google-benchmark): the LDP perturbation and
// estimation kernels, the DMU selection, and the synthesis step, swept over
// domain sizes / populations so the complexity claims of paper SIV-B are
// visible (user-side O(|S|), curator aggregation O(n + |S|), DMU O(|S|),
// synthesis O(|T_syn|)), plus the ingest shard merge at 1, 4 and 16
// chunks.

#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "common/alias_table.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/dmu.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "core/transition_sampler_cache.h"
#include "geo/grid.h"
#include "geo/state_space.h"
#include "ldp/aggregate.h"
#include "ldp/frequency_oracle.h"
#include "metrics/histogram.h"
#include "service/ingest_session.h"
#include "service/shard_merge.h"

namespace retrasyn {
namespace {

void BM_OuePerturbDense(benchmark::State& state) {
  const uint32_t domain = static_cast<uint32_t>(state.range(0));
  OueClient client(1.0, domain);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.Perturb(domain / 2, rng));
  }
  state.SetComplexityN(domain);
}
BENCHMARK(BM_OuePerturbDense)->Range(64, 4096)->Complexity(benchmark::oN);

void BM_OuePerturbSparse(benchmark::State& state) {
  const uint32_t domain = static_cast<uint32_t>(state.range(0));
  OueClient client(1.0, domain);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.PerturbSparse(domain / 2, rng));
  }
}
BENCHMARK(BM_OuePerturbSparse)->Range(64, 4096);

void BM_OueEstimate(benchmark::State& state) {
  const uint32_t domain = static_cast<uint32_t>(state.range(0));
  OueAggregator agg(1.0, domain);
  std::vector<uint64_t> ones(domain, 13);
  agg.AddRawCounts(ones, 1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(agg.EstimateFrequencies());
  }
}
BENCHMARK(BM_OueEstimate)->Range(64, 4096);

// The perfbench fine_quadtree shape: a 44k-state domain (4096 quadtree
// leaves) with n reports spread uniformly over it, so nearly every state
// draws the unreported Binomial(n, q).
void BM_CollectAggregateSim(benchmark::State& state) {
  const uint32_t domain = 44000;
  const size_t n = static_cast<size_t>(state.range(0));
  TransitionCollector collector(domain, CollectionMode::kAggregateSim);
  Rng rng(3);
  std::vector<StateId> states(n);
  for (StateId& s : states) s = static_cast<StateId>(rng.UniformInt(domain));
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.Collect(states, 1.0, rng));
  }
}
BENCHMARK(BM_CollectAggregateSim)
    ->Arg(1000)
    ->Arg(5000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void BM_CollectPerUser(benchmark::State& state) {
  const uint32_t domain = 1000;
  const size_t n = static_cast<size_t>(state.range(0));
  TransitionCollector collector(domain, CollectionMode::kPerUser);
  Rng rng(4);
  std::vector<StateId> states(n);
  for (size_t i = 0; i < n; ++i) states[i] = i % domain;
  for (auto _ : state) {
    benchmark::DoNotOptimize(collector.Collect(states, 1.0, rng));
  }
}
BENCHMARK(BM_CollectPerUser)->Range(100, 2000);

void BM_DmuSelect(benchmark::State& state) {
  const uint32_t domain = static_cast<uint32_t>(state.range(0));
  Rng rng(5);
  std::vector<double> model(domain), fresh(domain);
  for (uint32_t i = 0; i < domain; ++i) {
    model[i] = rng.UniformDouble() * 0.01;
    fresh[i] = model[i] + rng.Gaussian(0.0, 0.002);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SelectSignificantTransitions(model, fresh, 1.0, 5000));
  }
  state.SetComplexityN(domain);
}
BENCHMARK(BM_DmuSelect)->Range(64, 8192)->Complexity(benchmark::oN);

// --- O(1) cached sampling vs O(n) linear scans (paper SIV-B) ---------------
//
// The per-point complexity claim of the alias-table hot path: sampling from a
// cached table is flat in the distribution size, while Rng::Discrete walks
// the weight vector. The build cost is linear and paid once per model change.

void BM_DiscreteLinear(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(21);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.UniformDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Discrete(weights));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_DiscreteLinear)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_AliasSample(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(22);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.UniformDouble();
  AliasTable table;
  table.Build(weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Sample(rng));
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AliasSample)->Range(8, 4096)->Complexity(benchmark::o1);

void BM_AliasBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(23);
  std::vector<double> weights(n);
  for (double& w : weights) w = rng.UniformDouble();
  AliasTable table;
  for (auto _ : state) {
    table.Build(weights);
    benchmark::DoNotOptimize(table);
  }
  state.SetComplexityN(static_cast<int64_t>(n));
}
BENCHMARK(BM_AliasBuild)->Range(8, 4096)->Complexity(benchmark::oN);

void BM_SamplerCacheSyncIncremental(benchmark::State& state) {
  // Steady-state DMU round: a small selective update followed by a Sync that
  // re-derives only the touched cells.
  const uint32_t dirty = static_cast<uint32_t>(state.range(0));
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 32);
  const StateSpace states(grid);
  GlobalMobilityModel model(states);
  Rng rng(24);
  std::vector<double> f(states.size());
  for (double& x : f) x = rng.UniformDouble() * 0.01;
  model.ReplaceAll(f);
  TransitionSamplerCache cache(states);
  cache.Sync(model);
  std::vector<StateId> selected(dirty);
  for (auto _ : state) {
    state.PauseTiming();
    for (StateId& s : selected) {
      s = static_cast<StateId>(
          rng.UniformInt(static_cast<uint64_t>(states.size())));
      f[s] = rng.UniformDouble() * 0.01;
    }
    model.UpdateStates(selected, f);
    state.ResumeTiming();
    cache.Sync(model);
  }
  state.SetComplexityN(dirty);
}
BENCHMARK(BM_SamplerCacheSyncIncremental)
    ->Range(8, 2048)
    ->Complexity(benchmark::oN);

void BM_SynthesizerStep(benchmark::State& state) {
  const uint32_t population = static_cast<uint32_t>(state.range(0));
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 10);
  const StateSpace states(grid);
  GlobalMobilityModel model(states);
  Rng rng(6);
  std::vector<double> f(states.size());
  for (double& x : f) x = rng.UniformDouble() * 0.01;
  model.ReplaceAll(f);
  SynthesizerConfig config;
  config.lambda = 50.0;
  Synthesizer synthesizer(states, config);
  synthesizer.Initialize(model, population, 0, rng);
  int64_t t = 1;
  for (auto _ : state) {
    synthesizer.Step(model, population, t++, rng);
  }
  state.SetComplexityN(population);
}
BENCHMARK(BM_SynthesizerStep)->Range(1000, 64000)->Complexity(benchmark::oN);

void BM_SynthesizerStepThreads(benchmark::State& state) {
  // The paper's future-work acceleration: parallel synthesis. Sweep worker
  // threads at a fixed large population, on a live persistent pool (without
  // one the chunks run inline and the sweep would measure serial execution).
  const int threads = static_cast<int>(state.range(0));
  const uint32_t population = 64000;
  const UniformGrid grid(BoundingBox{0.0, 0.0, 1.0, 1.0}, 10);
  const StateSpace states(grid);
  GlobalMobilityModel model(states);
  Rng rng(9);
  std::vector<double> f(states.size());
  for (double& x : f) x = rng.UniformDouble() * 0.01;
  model.ReplaceAll(f);
  SynthesizerConfig config;
  config.lambda = 50.0;
  config.num_threads = threads;
  ThreadPool pool(threads);
  Synthesizer synthesizer(states, config);
  synthesizer.SetThreadPool(&pool);
  synthesizer.Initialize(model, population, 0, rng);
  int64_t t = 1;
  for (auto _ : state) {
    synthesizer.Step(model, population, t++, rng);
  }
}
BENCHMARK(BM_SynthesizerStepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SealedRunMerge(benchmark::State& state) {
  // Tick's shard merge at the dense_hotspot shape: 100k users hashed over 4
  // shard runs, about 7% quits and 7% enters. Arg = chunk count; chunks > 1
  // run on a 4-executor pool, so wall time (not the caller's CPU) is the
  // figure.
  const int chunks = static_cast<int>(state.range(0));
  constexpr int kShards = 4;
  std::vector<std::vector<SealedEntry>> runs(kShards);
  Rng rng(10);
  for (uint64_t user = 0; user < 100000; ++user) {
    auto& run = runs[IngestSession::ShardOf(user, kShards)];
    const double roll = rng.UniformDouble();
    if (roll < 0.07) run.push_back(SealedEntry{user, 0, 5, 1, 0, false});
    if (roll >= 0.035) {
      const bool enter = roll < 0.105;
      run.push_back(SealedEntry{user, 0, enter ? 0u : 7u, 2, 1, enter});
    }
  }
  std::vector<SealedRun> sealed;
  for (auto& run : runs) {
    SealedRun s{run.data(), run.size(), 0, 0};
    for (const SealedEntry& e : run) {
      s.num_quits += e.phase == 0 ? 1 : 0;
      s.num_enters += e.is_enter ? 1 : 0;
    }
    sealed.push_back(s);
  }
  ThreadPool pool(kShards);
  SealedRunMerger merger;
  const std::deque<uint32_t> free_indices;
  const StreamIndexCursor::Buckets buckets;
  TimestampBatch batch;
  std::vector<uint32_t> quits;
  for (auto _ : state) {
    StreamIndexCursor cursor(free_indices, buckets, 0, 0);
    merger.Merge(sealed, chunks, chunks > 1 ? &pool : nullptr, cursor, &batch,
                 &quits);
    benchmark::DoNotOptimize(batch.observations.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_SealedRunMerge)->Arg(1)->Arg(4)->Arg(16)->UseRealTime();

void BM_GridLocate(benchmark::State& state) {
  const UniformGrid grid(BoundingBox{0.0, 0.0, 30000.0, 30000.0}, 18);
  Rng rng(7);
  Point p{rng.UniformDouble(0, 30000), rng.UniformDouble(0, 30000)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.Locate(p));
    p.x += 1.0;
    if (p.x > 30000.0) p.x = 0.0;
  }
}
BENCHMARK(BM_GridLocate);

void BM_Jsd(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(8);
  std::vector<double> p(d), q(d);
  for (size_t i = 0; i < d; ++i) {
    p[i] = rng.UniformDouble();
    q[i] = rng.UniformDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(JensenShannonDivergence(p, q));
  }
}
BENCHMARK(BM_Jsd)->Range(64, 4096);

}  // namespace
}  // namespace retrasyn

BENCHMARK_MAIN();
