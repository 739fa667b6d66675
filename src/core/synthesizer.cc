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

bool Synthesizer::ColumnsConsistent() const {
  const size_t n = cur_.size();
  if (len_.size() != n || enter_.size() != n || head_.size() != n ||
      tail_.size() != n) {
    return false;
  }
  for (size_t i = 0; i < n; ++i) {
    if (len_[i] == 0 ||
        cur_[i] != BlockCells(tail_[i])[(len_[i] - 1) % kBlockCells]) {
      return false;
    }
  }
  return true;
}

void Synthesizer::AddPage() {
  RETRASYN_CHECK(pages_.size() < (size_t{1} << (32 - kPageShift)) - 1);
  const uint32_t base = static_cast<uint32_t>(pages_.size()) << kPageShift;
  // Default-initialized: a page's cells stay untouched until written.
  pages_.emplace_back(new Page);
  // Thread the page in descending order so blocks leave it ascending.
  for (uint32_t i = kPageBlocks; i-- > 0;) {
    NextBlock(base + i) = free_head_;
    free_head_ = base + i;
  }
  free_blocks_ += kPageBlocks;
}

void Synthesizer::FreeChain(uint32_t head, uint32_t length) {
  uint32_t block = head;
  for (uint32_t n = (length + kBlockCells - 1) / kBlockCells; n > 0; --n) {
    const uint32_t next = NextBlock(block);
    NextBlock(block) = free_head_;
    free_head_ = block;
    ++free_blocks_;
    block = next;
  }
}

CellStream Synthesizer::Materialize(int64_t enter_time, uint32_t length,
                                    uint32_t head) const {
  CellStream stream;
  stream.enter_time = enter_time;
  stream.cells.reserve(length);
  uint32_t block = head;
  for (uint32_t done = 0; done < length; done += kBlockCells) {
    const CellId* cells = BlockCells(block);
    stream.cells.insert(stream.cells.end(), cells,
                        cells + std::min(kBlockCells, length - done));
    block = NextBlock(block);
  }
  return stream;
}

uint32_t Synthesizer::StoreChain(const std::vector<CellId>& cells,
                                 uint32_t* tail) {
  RETRASYN_CHECK(!cells.empty());
  RETRASYN_CHECK(cells.size() <= std::numeric_limits<uint32_t>::max());
  const uint32_t length = static_cast<uint32_t>(cells.size());
  const uint32_t head = AllocBlock();
  *tail = head;
  for (uint32_t done = 0; done < length; done += kBlockCells) {
    if (done > 0) {
      const uint32_t block = AllocBlock();
      NextBlock(*tail) = block;
      *tail = block;
    }
    std::copy_n(cells.begin() + done, std::min(kBlockCells, length - done),
                BlockCells(*tail));
  }
  return head;
}

void Synthesizer::TruncateLive(size_t n) {
  cur_.resize(n);
  len_.resize(n);
  enter_.resize(n);
  head_.resize(n);
  tail_.resize(n);
  proposed_.resize(n);
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
    const uint32_t block = AllocBlock();
    BlockCells(block)[0] = cell;
    cur_.push_back(cell);
    len_.push_back(1);
    enter_.push_back(t);
    head_.push_back(block);
    tail_.push_back(block);
    ++total_points_;
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
  live_metric_->Set(static_cast<int64_t>(cur_.size()));
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
  const size_t n = cur_.size();
  proposed_.resize(n);
  if (config_.use_quit) quitters_.resize(n);
  chunk_kept_.assign(chunks, 0);
  chunk_rngs_.clear();
  if (chunks > 1) {
    for (int c = 0; c < chunks; ++c) chunk_rngs_.push_back(rng.Fork());
  }
}

// HOT PATH — the per-stream quit+move+retire body; reads the dense live
// columns, never a stream's blocks.
size_t Synthesizer::QuitMoveCompact(size_t lo, size_t hi, Rng& chunk_rng) {
  // A local copy lets the RNG state live in registers: the column stores
  // below (int64_t enter times) could otherwise alias its words.
  Rng rng = chunk_rng;
  size_t kept = lo;
  size_t quit = lo;
  for (size_t i = lo; i < hi; ++i) {
    const CellId at = cur_[i];
    if (config_.use_quit) {
      const double base = cache_.QuitProbability(at);
      const double len = static_cast<double>(len_[i]);
      if (rng.Bernoulli(std::min(1.0, len / config_.lambda * base))) {
        quitters_[quit++] = Handle(i);
        continue;
      }
    }
    // kept <= i: slot i is read before anything overwrites it.
    const CellId next = cache_.SampleNextCell(at, rng);
    if (kept != i) MoveLive(i, kept);
    proposed_[kept++] = next;
  }
  chunk_rng = rng;
  return kept - lo;
}

void Synthesizer::QuitAndGeneratePhase(Rng& rng) {
  const size_t n = cur_.size();
  const int chunks = EffectiveChunks(n);
  PrepareRoundScratch(chunks, rng);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  auto run_chunk = [&](int c) {
    const size_t lo = std::min(n, static_cast<size_t>(c) * chunk_size);
    const size_t hi = std::min(n, lo + chunk_size);
    chunk_kept_[c] =
        QuitMoveCompact(lo, hi, chunks > 1 ? chunk_rngs_[c] : rng);
  };
  if (chunks > 1 && pool_ != nullptr) {
    pool_->ParallelFor(chunks, run_chunk);
  } else {
    // One chunk, or no pool attached: the same chunk schedule runs inline.
    // Chunks touch disjoint slots from their own RNGs, so this is
    // byte-identical to the pooled run.
    for (int c = 0; c < chunks; ++c) run_chunk(c);
  }
  // Slide each chunk's survivors down to the end of the previous chunk's,
  // and hand its quitters to finished_: both stay in live order.
  size_t w = 0;
  for (int c = 0; c < chunks; ++c) {
    const size_t lo = std::min(n, static_cast<size_t>(c) * chunk_size);
    const size_t hi = std::min(n, lo + chunk_size);
    const size_t kept = chunk_kept_[c];
    if (w != lo) {
      for (size_t i = lo; i < lo + kept; ++i) {
        MoveLive(i, w + (i - lo));
        proposed_[w + (i - lo)] = proposed_[i];
      }
    }
    if (kept < hi - lo) {
      finished_.insert(finished_.end(), quitters_.begin() + lo,
                       quitters_.begin() + lo + (hi - lo - kept));
    }
    w += kept;
  }
  TruncateLive(w);
}

// HOT PATH — the commit: one append per survivor into its tail block. A
// full tail block takes a block off the free list; a new page (the only
// allocation) is added out of line in AddPage.
void Synthesizer::CommitProposals() {
  const size_t n = cur_.size();
  for (size_t i = 0; i < n; ++i) {
    if (i + kCommitPrefetch < n) {
      const size_t ahead = i + kCommitPrefetch;
      __builtin_prefetch(
          BlockCells(tail_[ahead]) + len_[ahead] % kBlockCells, /*rw=*/1);
    }
    const uint32_t slot = len_[i] % kBlockCells;
    if (slot == 0) {
      const uint32_t block = AllocBlock();
      NextBlock(tail_[i]) = block;
      tail_[i] = block;
    }
    BlockCells(tail_[i])[slot] = proposed_[i];
    ++len_[i];
  }
  cur_.swap(proposed_);
  total_points_ += n;
}

void Synthesizer::Step(const GlobalMobilityModel& model,
                       uint32_t target_active, int64_t t, Rng& rng) {
  RETRASYN_CHECK(initialized_);
  Stopwatch step_watch;
  const size_t finished_before = finished_.size();
  cache_.Sync(model);

  // 1. + 3a. Fused quit decision (Eq. 8), next-cell proposal and stable
  //     retire compaction, one pass.
  QuitAndGeneratePhase(rng);

  // 2. Size adjustment: terminate surplus streams by the quitting
  //    distribution at their last location; spawns are deferred until after
  //    point generation so new streams begin at timestamp t.
  uint32_t deficit = 0;
  if (config_.use_size_adjustment) {
    const size_t live = cur_.size();
    if (live > target_active) {
      const std::vector<double>& quit_dist = cache_.QuitDistribution();
      const uint32_t surplus = static_cast<uint32_t>(live) - target_active;
      // Weighted sampling without replacement via one exponential race
      // (Efraimidis-Spirakis): stream i draws key = Exp(1)/w_i and the
      // `surplus` smallest keys are distributed exactly like sequentially
      // drawing victims proportional to the remaining weights — in O(live)
      // RNG draws total instead of O(surplus * live). Zero-weight streams
      // race at +inf with a uniform tiebreaker, so they only lose once the
      // positive mass is exhausted (the former uniform fallback).
      std::vector<std::pair<double, double>> race(live);
      for (size_t i = 0; i < live; ++i) {
        const double w = quit_dist.empty() ? 0.0 : quit_dist[cur_[i]];
        const double u = rng.UniformDouble();
        if (w > 0.0) {
          race[i] = {-std::log1p(-u) / w, 0.0};  // Exp(1)/w, u in [0,1)
        } else {
          race[i] = {std::numeric_limits<double>::infinity(), u};
        }
      }
      std::vector<size_t> victims(live);
      for (size_t i = 0; i < live; ++i) victims[i] = i;
      std::nth_element(victims.begin(), victims.begin() + surplus,
                       victims.end(), [&](size_t a, size_t b) {
                         return race[a] < race[b];
                       });
      victims.resize(surplus);
      // Remove in descending index order so swap-erase stays valid. Victims
      // never receive this round's proposed point: they end at their last
      // cell, exactly as when the adjustment preceded generation.
      std::sort(victims.rbegin(), victims.rend());
      size_t last = live;
      for (size_t victim : victims) {
        finished_.push_back(Handle(victim));
        --last;
        MoveLive(last, victim);
        proposed_[victim] = proposed_[last];
      }
      TruncateLive(last);
    } else if (live < target_active) {
      deficit = target_active - static_cast<uint32_t>(live);
    }
  }

  // 3b. Commit the proposed points of the remaining survivors (Markov step).
  CommitProposals();

  // 4. Fill the deficit with fresh entering streams at timestamp t.
  if (deficit > 0) Spawn(deficit, t, rng);

  RETRASYN_DCHECK(ColumnsConsistent());

  if (step_hist_ != nullptr) {
    RecordStepTelemetry(step_watch.ElapsedSeconds(),
                        finished_.size() - finished_before);
  }
}

void Synthesizer::SaveCheckpointState(
    std::vector<CellStream>* live, std::vector<CellStream>* finished) const {
  live->clear();
  live->reserve(cur_.size());
  for (size_t i = 0; i < cur_.size(); ++i) {
    live->push_back(Materialize(enter_[i], len_[i], head_[i]));
  }
  finished->clear();
  finished->reserve(finished_.size());
  for (const FinishedStream& f : finished_) {
    finished->push_back(Materialize(f.enter_time, f.length, f.head));
  }
}

std::vector<CellStream> Synthesizer::TakeFinished() {
  std::vector<CellStream> taken;
  taken.reserve(finished_.size());
  for (const FinishedStream& f : finished_) {
    taken.push_back(Materialize(f.enter_time, f.length, f.head));
    FreeChain(f.head, f.length);
  }
  finished_.clear();
  return taken;
}

void Synthesizer::Restore(const std::vector<CellStream>& live,
                          const std::vector<CellStream>& finished,
                          uint64_t total_points, bool initialized) {
  pages_.clear();
  free_head_ = kNoBlock;
  free_blocks_ = 0;
  TruncateLive(0);
  finished_.clear();
  uint32_t tail;
  for (const CellStream& s : finished) {
    const uint32_t head = StoreChain(s.cells, &tail);
    finished_.push_back(FinishedStream{
        s.enter_time, static_cast<uint32_t>(s.cells.size()), head});
  }
  for (const CellStream& s : live) {
    head_.push_back(StoreChain(s.cells, &tail));
    tail_.push_back(tail);
    cur_.push_back(s.cells.back());
    len_.push_back(static_cast<uint32_t>(s.cells.size()));
    enter_.push_back(s.enter_time);
  }
  total_points_ = total_points;
  initialized_ = initialized;
}

CellStreamSet Synthesizer::Snapshot(int64_t num_timestamps) const {
  CellStreamSet out(num_timestamps);
  for (const FinishedStream& f : finished_) {
    out.Add(Materialize(f.enter_time, f.length, f.head)).CheckOK();
  }
  for (size_t i = 0; i < cur_.size(); ++i) {
    out.Add(Materialize(enter_[i], len_[i], head_[i])).CheckOK();
  }
  return out;
}

}  // namespace retrasyn
