// Real-time trajectory synthesis (paper SIII-D).
//
// The synthesizer maintains the evolving synthetic database T_syn. Each
// timestamp performs, in order:
//
//  1. Quit phase: every live synthetic stream terminates with the
//     length-reweighted probability of Eq. 8,
//       Pr(quit | c_i) = (len / lambda) * f_iQ / (sum_{x in N(i)} f_ix + f_iQ),
//     so streams do not end prematurely under a pure first-order model.
//  2. Size adjustment (paper "Size Adjustment"): surplus streams are
//     terminated with probability proportional to the quitting distribution
//     Q at their last cell; deficits are filled by spawning streams whose
//     start cell is drawn from the entering distribution E.
//  3. New point generation: each surviving stream appends a next cell from
//     the Markov movement distribution of its current cell; fresh spawns
//     start at their sampled entering cell.
//
// Doing the size adjustment *before* appending points keeps the number of
// synthetic streams holding a location at timestamp t exactly equal to the
// number of real active users at t, which several downstream metrics
// (density, query counts) rely on.
//
// Hot-path organization (paper SIV-B: synthesis must be O(|T_syn|) per
// round): the quit decision and the Markov step are fused into a single
// traversal of the live streams, each drawing from O(1) cached alias
// samplers (TransitionSamplerCache) instead of re-deriving distributions
// from raw model frequencies. Quit decisions and proposed next cells are
// staged in reusable scratch buffers; points are only committed after the
// size adjustment picks its victims, which preserves the phase ordering
// above while halving the traversals.
//
// The round close touches dense arrays only. A live-cell column cur_,
// parallel to live_, holds every live stream's current cell
// (live_[i].cells.back()) between rounds. Spawn, the stable retire
// compaction and Restore apply to cur_ what they do to live_; the
// commit replaces cur_ with the survivors' proposals, so the victim
// swap-erase before it leaves cur_ alone. The quit+move pass, the
// size-adjustment race and LiveDensity() read the column and the streams'
// vector headers, never a stream's heap cell buffer; only the commit writes
// there, one append per survivor, prefetched a few streams ahead.
//
// The ablation/baseline switches: use_quit=false + use_size_adjustment=false
// + random_init=true reproduce the NoEQ variant of SV-D and the behaviour of
// the adapted LDP-IDS baselines (streams never terminate and the population
// is frozen at its initial size).
//
// The live set is index-agnostic by design: synthetic streams are anonymous
// (identified only by position in live_), never keyed by the real stream
// indices the engine observes. Stream-index recycling (the service
// session re-issuing retired indices) therefore cannot alias a new real
// stream onto an old synthetic one — only the per-round active *count*
// crosses from collection into synthesis.

#ifndef RETRASYN_CORE_SYNTHESIZER_H_
#define RETRASYN_CORE_SYNTHESIZER_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/mobility_model.h"
#include "core/transition_sampler_cache.h"
#include "stream/cell_stream.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

struct SynthesizerConfig {
  /// Stream-length reweighting factor lambda of Eq. 8; the paper sets it to
  /// the dataset's average trajectory length.
  double lambda = 13.61;
  bool use_quit = true;
  bool use_size_adjustment = true;
  /// NoEQ / baselines: no entering distribution is learned, so start cells
  /// are drawn from the model's movement-source marginal (the private
  /// estimate of where users currently are), falling back to uniform cells
  /// when the model carries no movement mass yet.
  bool random_init = false;
  /// Chunk parallelism for the fused quit+generate phase (the paper's stated
  /// future work: "acceleration techniques (e.g., parallel computing)").
  /// Streams are partitioned into at most this many fixed chunks, each driven
  /// by a deterministically forked RNG, so output is byte-identical for a
  /// given (seed, num_threads) — independent of the machine, of whether a
  /// ThreadPool is attached, and of that pool's actual size. 1 = serial
  /// (default).
  int num_threads = 1;
};

class Synthesizer {
 public:
  Synthesizer(const StateSpace& states, const SynthesizerConfig& config);

  /// Attaches a persistent worker pool (not owned; must outlive the
  /// synthesizer) for the parallel phase. Without a pool, chunked work runs
  /// inline on the calling thread with byte-identical results.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  bool initialized() const { return initialized_; }
  uint32_t num_live() const { return static_cast<uint32_t>(live_.size()); }
  uint64_t total_points() const { return total_points_; }

  /// The currently-live synthetic streams (the evolving T_syn); real-time
  /// consumers can query this between timestamps without finishing the run.
  const std::vector<CellStream>& live_streams() const { return live_; }

  /// Per-cell counts of the live streams' current locations — the real-time
  /// synthetic density snapshot.
  std::vector<uint32_t> LiveDensity() const;

  /// Creates the initial synthetic population of \p target_size streams at
  /// timestamp \p t, sampling start cells from the model's entering
  /// distribution (uniform under random_init or when E carries no mass).
  void Initialize(const GlobalMobilityModel& model, uint32_t target_size,
                  int64_t t, Rng& rng);

  /// Advances the database to timestamp \p t (quit, size-adjust, generate).
  /// With size adjustment enabled the live count after this call equals
  /// \p target_active.
  void Step(const GlobalMobilityModel& model, uint32_t target_active,
            int64_t t, Rng& rng);

  /// Non-destructive copy of the synthetic database (finished + live streams)
  /// over horizon \p num_timestamps, which must cover every generated point
  /// (>= the last stepped timestamp + 1). The synthesizer keeps running.
  CellStreamSet Snapshot(int64_t num_timestamps) const;

  /// Derivation-work counters of the underlying sampler cache (tests and
  /// benches assert rebuilds track model changes, not sample counts).
  const SamplerCacheStats& cache_stats() const { return cache_.stats(); }

  /// Registers synthesis metrics in \p telemetry (not owned; null detaches):
  /// per-round step latency, points generated, live-stream gauge, and
  /// sampler-cache rebuild counters (recorded as deltas of cache_stats()
  /// after each Initialize/Step). Observation-only: attached or detached,
  /// the generated streams are byte-identical — the hot path never touches
  /// telemetry, only the per-round epilogue does.
  void AttachTelemetry(Telemetry* telemetry);

  // --- Checkpoint / history-spill hooks ------------------------------------

  /// Streams that already terminated (the per-horizon history Snapshot
  /// serves before the live set).
  const std::vector<CellStream>& finished_streams() const { return finished_; }

  /// Moves the finished history out, leaving it empty; live streams and
  /// counters are untouched. Snapshot() afterwards covers only the remainder,
  /// so the caller owns re-prepending the extracted prefix (the checkpoint
  /// manager serves it from spill files).
  std::vector<CellStream> TakeFinished();

  /// Restores a checkpointed synthesizer verbatim. \p total_points counts
  /// every point ever generated, including points in spilled (taken) history.
  /// The sampler cache is left stale on purpose: restoring the model counts
  /// as a full invalidation, so the next Step rebuilds it deterministically.
  void Restore(std::vector<CellStream> live, std::vector<CellStream> finished,
               uint64_t total_points, bool initialized);

 private:
  /// Cells reserved for each spawned stream. glibc's smallest chunk already
  /// holds 24 bytes, so 6 cells cost the same memory as 1 and skip the
  /// 1 -> 2 -> 4 reallocations of a stream's first appends.
  static constexpr size_t kSpawnReserve = 6;
  /// How many streams ahead the commit loop prefetches the append slot.
  static constexpr size_t kCommitPrefetch = 16;

  /// Starts \p count streams at timestamp \p t, their first cells drawn from
  /// the cached entering (or, under random_init, move-marginal) sampler.
  void Spawn(uint32_t count, int64_t t, Rng& rng);
  /// Fused Eq. 8 termination + Markov step: one (optionally parallel) pass
  /// fills quit_flags_ and proposed_ for every live stream. Nothing is
  /// committed: quitters move to finished_ and the size adjustment may still
  /// drop survivors before their proposed point is appended.
  void QuitAndGeneratePhase(Rng& rng);
  /// Sizes the per-round scratch for the current live set and forks the
  /// per-chunk RNGs when \p chunks > 1. Kept out of QuitAndGeneratePhase so
  /// that pass stays allocation-free by construction.
  void PrepareRoundScratch(int chunks, Rng& rng);
  /// True iff cur_ mirrors live_ (cur_[i] == live_[i].cells.back()).
  bool ColumnMatchesLive() const;
  /// Number of work chunks for \p work_items (1 = run serially on the main
  /// RNG; >1 = forked per-chunk RNGs). Depends only on the config and the
  /// work size, never on the machine.
  int EffectiveChunks(size_t work_items) const;

  /// Per-round telemetry epilogue: step latency, point/cache-stat deltas,
  /// finished-stream delta, live gauge. Only called when attached.
  void RecordStepTelemetry(double seconds, uint64_t finished_delta);

  const StateSpace* states_;
  SynthesizerConfig config_;
  TransitionSamplerCache cache_;
  ThreadPool* pool_ = nullptr;
  std::vector<CellStream> live_;
  std::vector<CellId> cur_;  ///< live-cell column: live_[i].cells.back()
  std::vector<CellStream> finished_;
  uint64_t total_points_ = 0;
  bool initialized_ = false;

  // Per-round scratch, reused so the steady state allocates nothing.
  std::vector<uint8_t> quit_flags_;
  std::vector<CellId> proposed_;
  std::vector<Rng> chunk_rngs_;

  // Telemetry (all null when detached). Counters are fed deltas against the
  // last reported totals so re-attaching never double-counts.
  LatencyHistogram* step_hist_ = nullptr;
  Counter* points_metric_ = nullptr;
  Counter* finished_metric_ = nullptr;
  Gauge* live_metric_ = nullptr;
  Counter* cache_syncs_metric_ = nullptr;
  Counter* cache_full_rebuilds_metric_ = nullptr;
  Counter* cache_cell_rebuilds_metric_ = nullptr;
  uint64_t points_reported_ = 0;
  SamplerCacheStats cache_reported_;
};

}  // namespace retrasyn

#endif  // RETRASYN_CORE_SYNTHESIZER_H_
