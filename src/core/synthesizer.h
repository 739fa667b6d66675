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
// from raw model frequencies. Proposed next cells are staged in a reusable
// scratch column; points are only committed after the size adjustment picks
// its victims, which preserves the phase ordering above.
//
// The synthetic stream store. Streams are not vectors: the live set is a
// set of dense columns in live order -- cur_ (the current cell), len_,
// enter_ and the head/tail block ids -- over a synthesizer-owned arena of
// fixed kBlockCells-cell blocks, drawn from fixed-size pages through a free
// list. A stream's cells are a chain of blocks linked head to tail. A
// finished stream is a FinishedStream handle {enter_time, length, head}.
// Only Snapshot, TakeFinished (which frees the taken blocks for reuse),
// SaveCheckpointState and Restore convert to or from CellStream.
//
// One round touches dense columns plus one block slot per survivor:
//  * the fused pass reads cur_ and len_ for Eq. 8, proposes the next cell,
//    and compacts the survivors in stable order in the same sweep. Run
//    serially, each chunk compacts straight to a running write cursor; on a
//    pool each chunk compacts its own range and the ranges then slide
//    together in chunk order. Either way the quitters' handles join
//    finished_ in live order;
//  * the size-adjustment race reads cur_; victims are swap-erased from the
//    columns;
//  * the commit writes each proposal into its stream's tail block (taking
//    a fresh block every kBlockCells points; a new page only when the free
//    list is empty) and the proposals become cur_.
// The RNG draw order and the live and finished orders are those of a
// vector-per-stream store, so released and checkpoint bytes do not depend
// on the layout.
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
#include <memory>
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
};

class Synthesizer {
 public:
  /// Cells per arena block: 64 bytes, one cache line.
  static constexpr uint32_t kBlockCells = 16;

  Synthesizer(const StateSpace& states, const SynthesizerConfig& config);

  /// The fused pass runs one chunk per kChunkStreams live streams (the
  /// paper's stated future work: "acceleration techniques (e.g., parallel
  /// computing)").
  static constexpr size_t kChunkStreams = 2048;

  /// Chunks the fused pass splits \p live_streams into: live_streams /
  /// kChunkStreams, at least 1. A pure function of the work size, so the
  /// bytes never depend on the machine, the pool or a thread count. One
  /// chunk draws from the round RNG itself; with more, chunk c draws from
  /// the c-th fork of it.
  static int EffectiveChunks(size_t live_streams);

  /// Attaches a persistent worker pool (not owned; must outlive the
  /// synthesizer) that runs the chunks of the fused pass. It only decides
  /// which thread runs which chunk: without a pool, or with a pool of any
  /// size, the same chunks run with byte-identical results.
  void SetThreadPool(ThreadPool* pool) { pool_ = pool; }

  bool initialized() const { return initialized_; }
  uint32_t num_live() const { return static_cast<uint32_t>(cur_.size()); }
  /// Streams that terminated and were not taken yet (TakeFinished).
  size_t num_finished() const { return finished_.size(); }
  uint64_t total_points() const { return total_points_; }

  /// Blocks the stream store owns, in use or free. It grows a page at a
  /// time and never shrinks; TakeFinished returns blocks to the free list.
  size_t arena_blocks() const { return pages_.size() * kPageBlocks; }
  /// Of arena_blocks(), those on the free list.
  size_t arena_free_blocks() const { return free_blocks_; }

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

  /// Copies the live streams (in live order) and the finished streams not
  /// yet taken (in termination order) out of the store.
  void SaveCheckpointState(std::vector<CellStream>* live,
                           std::vector<CellStream>* finished) const;

  /// Moves the finished history out, leaving it empty and returning its
  /// blocks to the free list; live streams and counters are untouched.
  /// Snapshot() afterwards covers only the remainder, so the caller owns
  /// re-prepending the extracted prefix (the checkpoint manager serves it
  /// from spill files).
  std::vector<CellStream> TakeFinished();

  /// Restores a checkpointed synthesizer verbatim, replacing the whole
  /// store. Every stream must be non-empty. \p total_points counts every
  /// point ever generated, including points in spilled (taken) history.
  /// The sampler cache is left stale on purpose: restoring the model counts
  /// as a full invalidation, so the next Step rebuilds it deterministically.
  void Restore(const std::vector<CellStream>& live,
               const std::vector<CellStream>& finished,
               uint64_t total_points, bool initialized);

 private:
  /// A terminated stream: its cells are the first `length` cells of the
  /// block chain starting at `head`.
  struct FinishedStream {
    int64_t enter_time;
    uint32_t length;
    uint32_t head;
  };
  /// Arena pages: kPageBlocks blocks and their chain links. Fixed size, so
  /// growth never moves a block.
  static constexpr uint32_t kPageShift = 12;
  static constexpr uint32_t kPageBlocks = 1u << kPageShift;
  static constexpr uint32_t kNoBlock = ~uint32_t{0};
  struct Page {
    alignas(64) CellId cells[kPageBlocks][kBlockCells];
    uint32_t next[kPageBlocks];  ///< chain link, or free-list link
  };
  /// How many streams ahead the commit loop prefetches the append slot.
  static constexpr size_t kCommitPrefetch = 16;

  CellId* BlockCells(uint32_t block) const {
    return pages_[block >> kPageShift]->cells[block & (kPageBlocks - 1)];
  }
  uint32_t& NextBlock(uint32_t block) const {
    return pages_[block >> kPageShift]->next[block & (kPageBlocks - 1)];
  }
  /// Pops a block off the free list; its chain link is kNoBlock.
  uint32_t AllocBlock() {
    if (free_head_ == kNoBlock) AddPage();
    const uint32_t block = free_head_;
    free_head_ = NextBlock(block);
    NextBlock(block) = kNoBlock;
    --free_blocks_;
    return block;
  }
  /// Appends one page and threads its blocks onto the free list. Out of
  /// line: the only allocation the commit can reach.
  void AddPage();
  /// Returns the blocks holding a \p length -cell chain to the free list.
  void FreeChain(uint32_t head, uint32_t length);
  /// Copies \p length cells of the chain at \p head into a CellStream.
  CellStream Materialize(int64_t enter_time, uint32_t length,
                         uint32_t head) const;
  /// Copies non-empty \p cells into a fresh chain; returns its head block
  /// and sets \p tail to its last block.
  uint32_t StoreChain(const std::vector<CellId>& cells, uint32_t* tail);
  /// The live stream in slot \p i as a finished handle.
  FinishedStream Handle(size_t i) const {
    return FinishedStream{enter_[i], len_[i], head_[i]};
  }
  /// Copies live slot \p from over slot \p to (all columns but proposed_).
  void MoveLive(size_t from, size_t to) {
    cur_[to] = cur_[from];
    len_[to] = len_[from];
    enter_[to] = enter_[from];
    head_[to] = head_[from];
    tail_[to] = tail_[from];
  }
  /// Shrinks the live columns and proposed_ to \p n streams.
  void TruncateLive(size_t n);

  /// Starts \p count streams at timestamp \p t, their first cells drawn from
  /// the cached entering (or, under random_init, move-marginal) sampler.
  void Spawn(uint32_t count, int64_t t, Rng& rng);
  /// Fused Eq. 8 termination + Markov step + stable retire compaction, one
  /// (optionally parallel) pass. Survivors keep their live order and get a
  /// proposed_ cell; quitters' handles join finished_ in live order. Nothing
  /// is committed: the size adjustment may still drop survivors before their
  /// proposed point is appended.
  void QuitAndGeneratePhase(Rng& rng);
  /// One chunk of the fused pass over live slots [lo, hi): compacts the
  /// survivors to [kept, kept + k) and the quitters' handles to
  /// quitters_[quit, quit + hi - lo - k); returns k. Requires kept <= lo.
  size_t QuitMoveCompact(size_t lo, size_t hi, size_t kept, size_t quit,
                         Rng& rng);
  /// Appends each survivor's proposed cell to its chain; the proposals
  /// become cur_.
  void CommitProposals();
  /// Sizes the per-round scratch for the current live set and forks the
  /// per-chunk RNGs when \p chunks > 1. Kept out of the fused pass so that
  /// pass stays allocation-free by construction.
  void PrepareRoundScratch(int chunks, Rng& rng);
  /// True iff the live columns agree in size and cur_[i] is the last cell of
  /// chain i.
  bool ColumnsConsistent() const;
  /// Per-round telemetry epilogue: step latency, point/cache-stat deltas,
  /// finished-stream delta, live gauge. Only called when attached.
  void RecordStepTelemetry(double seconds, uint64_t finished_delta);

  const StateSpace* states_;
  SynthesizerConfig config_;
  TransitionSamplerCache cache_;
  ThreadPool* pool_ = nullptr;
  uint64_t total_points_ = 0;
  bool initialized_ = false;

  // The block arena.
  std::vector<std::unique_ptr<Page>> pages_;
  uint32_t free_head_ = kNoBlock;
  size_t free_blocks_ = 0;

  // Live columns, one slot per live stream in live order.
  std::vector<CellId> cur_;     ///< current (last) cell
  std::vector<uint32_t> len_;   ///< cells so far
  std::vector<int64_t> enter_;  ///< enter timestamp
  std::vector<uint32_t> head_;  ///< first block of the chain
  std::vector<uint32_t> tail_;  ///< block holding the last cell
  std::vector<FinishedStream> finished_;

  // Per-round scratch, reused so the steady state allocates nothing.
  std::vector<CellId> proposed_;
  std::vector<FinishedStream> quitters_;
  std::vector<size_t> chunk_kept_;
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
