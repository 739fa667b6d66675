#include "core/synthesizer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/stopwatch.h"

namespace retrasyn {

Synthesizer::Synthesizer(const StateSpace& states,
                         const SynthesizerConfig& config)
    : states_(&states), config_(config), cache_(states) {
  RETRASYN_CHECK(config.lambda > 0.0);
  RETRASYN_CHECK(config.num_threads >= 1);
}

std::vector<uint32_t> Synthesizer::LiveDensity() const {
  std::vector<uint32_t> counts(states_->num_cells(), 0);
  for (CellId c : cur_) ++counts[c];
  return counts;
}

bool Synthesizer::ColumnMatchesLive() const {
  if (cur_.size() != live_.size()) return false;
  for (size_t i = 0; i < live_.size(); ++i) {
    if (live_[i].cells.empty() || cur_[i] != live_[i].cells.back()) {
      return false;
    }
  }
  return true;
}

void Synthesizer::Spawn(uint32_t count, int64_t t, Rng& rng) {
  const uint32_t num_cells = states_->num_cells();
  for (uint32_t i = 0; i < count; ++i) {
    CellId cell = config_.random_init ? cache_.SampleMoveMarginalCell(rng)
                                      : cache_.SampleEnterCell(rng);
    if (cell >= num_cells) {
      // No mass in the model yet: uniform fallback.
      cell = static_cast<CellId>(
          rng.UniformInt(static_cast<uint64_t>(num_cells)));
    }
    CellStream stream;
    stream.enter_time = t;
    stream.cells.reserve(kSpawnReserve);
    stream.cells.push_back(cell);
    ++total_points_;
    live_.push_back(std::move(stream));
    cur_.push_back(cell);
  }
}

void Synthesizer::Initialize(const GlobalMobilityModel& model,
                             uint32_t target_size, int64_t t, Rng& rng) {
  RETRASYN_CHECK(!initialized_);
  Stopwatch step_watch;
  cache_.Sync(model);
  Spawn(target_size, t, rng);
  initialized_ = true;
  if (step_hist_ != nullptr) {
    RecordStepTelemetry(step_watch.ElapsedSeconds(), /*finished_delta=*/0);
  }
}

void Synthesizer::AttachTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr) {
    step_hist_ = nullptr;
    points_metric_ = nullptr;
    finished_metric_ = nullptr;
    live_metric_ = nullptr;
    cache_syncs_metric_ = nullptr;
    cache_full_rebuilds_metric_ = nullptr;
    cache_cell_rebuilds_metric_ = nullptr;
    return;
  }
  MetricsRegistry& registry = telemetry->registry();
  step_hist_ = registry.GetHistogram(
      "retrasyn_synthesis_step_seconds",
      "One synthesis round over the live set (quit + size-adjust + "
      "generate)");
  points_metric_ = registry.GetCounter("retrasyn_synthesis_points_total",
                                       "Synthetic trajectory points generated");
  finished_metric_ = registry.GetCounter(
      "retrasyn_synthesis_streams_finished_total",
      "Synthetic streams terminated (Eq. 8 quits + size-adjustment victims)");
  live_metric_ = registry.GetGauge("retrasyn_synthesis_live_streams",
                                   "Live synthetic streams after the last "
                                   "round");
  cache_syncs_metric_ = registry.GetCounter(
      "retrasyn_sampler_cache_syncs_total",
      "Sampler-cache Sync calls that found the cache stale");
  cache_full_rebuilds_metric_ = registry.GetCounter(
      "retrasyn_sampler_cache_full_rebuilds_total",
      "Sampler-cache full invalidations processed");
  cache_cell_rebuilds_metric_ = registry.GetCounter(
      "retrasyn_sampler_cache_cell_rebuilds_total",
      "Per-cell movement tables re-derived by the sampler cache");
  // Counters report deltas against these baselines, so attaching mid-run
  // (or re-attaching) never double-counts work already recorded.
  points_reported_ = total_points_;
  cache_reported_ = cache_.stats();
}

void Synthesizer::RecordStepTelemetry(double seconds,
                                      uint64_t finished_delta) {
  step_hist_->Record(seconds);
  points_metric_->Add(total_points_ - points_reported_);
  points_reported_ = total_points_;
  if (finished_delta > 0) finished_metric_->Add(finished_delta);
  live_metric_->Set(static_cast<int64_t>(live_.size()));
  const SamplerCacheStats& stats = cache_.stats();
  cache_syncs_metric_->Add(stats.syncs - cache_reported_.syncs);
  cache_full_rebuilds_metric_->Add(stats.full_rebuilds -
                                   cache_reported_.full_rebuilds);
  cache_cell_rebuilds_metric_->Add(stats.cell_rebuilds -
                                   cache_reported_.cell_rebuilds);
  cache_reported_ = stats;
}

int Synthesizer::EffectiveChunks(size_t work_items) const {
  if (config_.num_threads <= 1) return 1;
  // Below this size, per-chunk overhead dominates any gain. The chunk count
  // deliberately ignores the hardware concurrency: it must be a pure function
  // of (config, work size) so a run is reproducible on any machine.
  constexpr size_t kMinItemsPerChunk = 2048;
  const int by_work =
      static_cast<int>(std::max<size_t>(1, work_items / kMinItemsPerChunk));
  return std::min(config_.num_threads, by_work);
}

void Synthesizer::PrepareRoundScratch(int chunks, Rng& rng) {
  const size_t n = live_.size();
  quit_flags_.assign(n, 0);
  proposed_.resize(n);
  chunk_rngs_.clear();
  if (chunks > 1) {
    for (int c = 0; c < chunks; ++c) chunk_rngs_.push_back(rng.Fork());
  }
}

// HOT PATH — the per-stream quit+move body; reads the dense live-cell column
// and each stream's vector header, never a stream's cell buffer.
void Synthesizer::QuitAndGeneratePhase(Rng& rng) {
  const size_t n = live_.size();
  const int chunks = EffectiveChunks(n);
  PrepareRoundScratch(chunks, rng);
  auto process = [&](size_t i, Rng& r) {
    const CellId at = cur_[i];
    if (config_.use_quit) {
      const double base = cache_.QuitProbability(at);
      const double len = static_cast<double>(live_[i].cells.size());
      if (r.Bernoulli(std::min(1.0, len / config_.lambda * base))) {
        quit_flags_[i] = 1;
        return;
      }
    }
    proposed_[i] = cache_.SampleNextCell(at, r);
  };
  if (chunks <= 1) {
    for (size_t i = 0; i < n; ++i) process(i, rng);
    return;
  }
  const size_t chunk_size = (n + chunks - 1) / chunks;
  auto run_chunk = [&](int c) {
    const size_t lo = static_cast<size_t>(c) * chunk_size;
    const size_t hi = std::min(n, lo + chunk_size);
    Rng& r = chunk_rngs_[c];
    for (size_t i = lo; i < hi; ++i) process(i, r);
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(chunks, run_chunk);
  } else {
    // No pool attached: execute the same chunk schedule inline. Chunks write
    // disjoint slots from their own RNGs, so this is byte-identical to the
    // pooled run.
    for (int c = 0; c < chunks; ++c) run_chunk(c);
  }
}

void Synthesizer::Step(const GlobalMobilityModel& model,
                       uint32_t target_active, int64_t t, Rng& rng) {
  RETRASYN_CHECK(initialized_);
  Stopwatch step_watch;
  const size_t finished_before = finished_.size();
  cache_.Sync(model);

  // 1. + 3a. Fused quit decision (Eq. 8) and next-cell proposal, one pass.
  QuitAndGeneratePhase(rng);

  // 1b. Retire quitters, compacting survivors (and their proposed cells) in
  //     place in stable order.
  if (config_.use_quit) {
    size_t w = 0;
    for (size_t i = 0; i < live_.size(); ++i) {
      if (quit_flags_[i]) {
        finished_.push_back(std::move(live_[i]));
      } else {
        if (w != i) {
          live_[w] = std::move(live_[i]);
          cur_[w] = cur_[i];
          proposed_[w] = proposed_[i];
        }
        ++w;
      }
    }
    live_.resize(w);
    cur_.resize(w);
    proposed_.resize(w);
  }

  // 2. Size adjustment: terminate surplus streams by the quitting
  //    distribution at their last location; spawns are deferred until after
  //    point generation so new streams begin at timestamp t.
  uint32_t deficit = 0;
  if (config_.use_size_adjustment) {
    if (live_.size() > target_active) {
      const std::vector<double>& quit_dist = cache_.QuitDistribution();
      const uint32_t surplus =
          static_cast<uint32_t>(live_.size()) - target_active;
      // Weighted sampling without replacement via one exponential race
      // (Efraimidis-Spirakis): stream i draws key = Exp(1)/w_i and the
      // `surplus` smallest keys are distributed exactly like sequentially
      // drawing victims proportional to the remaining weights — in O(live)
      // RNG draws total instead of O(surplus * live). Zero-weight streams
      // race at +inf with a uniform tiebreaker, so they only lose once the
      // positive mass is exhausted (the former uniform fallback).
      std::vector<std::pair<double, double>> race(live_.size());
      for (size_t i = 0; i < live_.size(); ++i) {
        const double w = quit_dist.empty() ? 0.0 : quit_dist[cur_[i]];
        const double u = rng.UniformDouble();
        if (w > 0.0) {
          race[i] = {-std::log1p(-u) / w, 0.0};  // Exp(1)/w, u in [0,1)
        } else {
          race[i] = {std::numeric_limits<double>::infinity(), u};
        }
      }
      std::vector<size_t> victims(live_.size());
      for (size_t i = 0; i < live_.size(); ++i) victims[i] = i;
      std::nth_element(victims.begin(), victims.begin() + surplus,
                       victims.end(), [&](size_t a, size_t b) {
                         return race[a] < race[b];
                       });
      victims.resize(surplus);
      // Remove in descending index order so swap-erase stays valid. Victims
      // never receive this round's proposed point: they end at their last
      // cell, exactly as when the adjustment preceded generation. cur_ is
      // left as it is: nothing reads it before the commit replaces it.
      std::sort(victims.rbegin(), victims.rend());
      for (size_t victim : victims) {
        finished_.push_back(std::move(live_[victim]));
        live_[victim] = std::move(live_.back());
        live_.pop_back();
        proposed_[victim] = proposed_.back();
        proposed_.pop_back();
      }
    } else if (live_.size() < target_active) {
      deficit = target_active - static_cast<uint32_t>(live_.size());
    }
  }

  // 3b. Commit the proposed points of the remaining survivors (Markov step).
  //     The append slot of each stream is in its own heap buffer, so the
  //     loop prefetches the slot kCommitPrefetch streams ahead; the vector
  //     header that locates it is dense in live_, and a prefetch never
  //     faults. The proposals become the live-cell column.
  const size_t n = live_.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kCommitPrefetch < n) {
      const std::vector<CellId>& ahead = live_[i + kCommitPrefetch].cells;
      __builtin_prefetch(ahead.data() + ahead.size(), /*rw=*/1);
    }
    live_[i].cells.push_back(proposed_[i]);
  }
  cur_.swap(proposed_);
  total_points_ += n;

  // 4. Fill the deficit with fresh entering streams at timestamp t.
  if (deficit > 0) Spawn(deficit, t, rng);

  RETRASYN_DCHECK(ColumnMatchesLive());

  if (step_hist_ != nullptr) {
    RecordStepTelemetry(step_watch.ElapsedSeconds(),
                        finished_.size() - finished_before);
  }
}

std::vector<CellStream> Synthesizer::TakeFinished() {
  std::vector<CellStream> taken = std::move(finished_);
  finished_.clear();
  return taken;
}

void Synthesizer::Restore(std::vector<CellStream> live,
                          std::vector<CellStream> finished,
                          uint64_t total_points, bool initialized) {
  live_ = std::move(live);
  cur_.clear();
  cur_.reserve(live_.size());
  for (const CellStream& s : live_) {
    RETRASYN_CHECK(!s.cells.empty());
    cur_.push_back(s.cells.back());
  }
  finished_ = std::move(finished);
  total_points_ = total_points;
  initialized_ = initialized;
}

CellStreamSet Synthesizer::Snapshot(int64_t num_timestamps) const {
  CellStreamSet out(num_timestamps);
  for (const CellStream& s : finished_) out.Add(s).CheckOK();
  for (const CellStream& s : live_) out.Add(s).CheckOK();
  return out;
}

}  // namespace retrasyn
