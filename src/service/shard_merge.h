// The merge step of IngestSession::Tick: the sealed per-shard entry runs of
// one round become the round's global observation sequence.
//
// Each shard seals into a run of SealedEntry sorted by (user, phase). Shards
// partition the users, so merging the runs yields exactly the (user, phase)
// order a single shard's global sort would. SealedRunMerger splits that merge
// into num_chunks user-id ranges (a merge-path split; Odeh et al., 2012,
// "Merge Path — parallel merging made simple"): pivot users taken at even
// positions of the largest run, then a lower_bound of every run at each
// pivot. A user's quit and location share one key and live in one run, so no
// boundary separates them, and every chunk's output offset is a sum of run
// positions known before any chunk runs. Each chunk merges its range into
// its own slice of the presized observation buffer — on a pool when one is
// given — and notes its quits and enters in its own scratch region. One
// serial pass in chunk order then hands the enters their stream indices
// (from StreamIndexCursor, in merged order) and concatenates the quit
// indices. The batch, the index assignment and the entries' written-back
// indices are therefore identical for every chunk count and pool size.

#ifndef RETRASYN_SERVICE_SHARD_MERGE_H_
#define RETRASYN_SERVICE_SHARD_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "stream/feeder.h"

namespace retrasyn {

/// One event of a sealed round, fully resolved during the parallel per-shard
/// seal (transition state and — for quits/moves — the stream index are pure
/// functions of shard state); only an enter's stream index waits for the
/// merge, which assigns it on the merged sequence and writes it back here.
/// The commit writes the result straight into \p slot, the user's row in the
/// shard table (no slot moves between seal and commit).
struct SealedEntry {
  uint64_t user = 0;
  uint32_t slot = 0;          ///< the user's UserTable slot
  uint32_t stream_index = 0;  ///< quits/moves: owner; enters: merge-assigned
  /// Transition-state index of the observation: a location copies the state
  /// its slot resolved at admission; a quit is q_{last_cell}.
  uint32_t state = 0;
  uint8_t phase = 0;          ///< 0 = quit, 1 = enter/move
  bool is_enter = false;
};

/// One shard's sealed run, sorted by (user, phase), and how many of its
/// entries are quits and enters (counted by the seal; they bound the
/// merge's per-chunk scratch).
struct SealedRun {
  SealedEntry* entries = nullptr;
  size_t size = 0;
  size_t num_quits = 0;
  size_t num_enters = 0;
};

/// The stream indices a round's enters draw, in order: the free list, then
/// the indices of the retiring quitted_at buckets (the first buckets, whose
/// \p reusable - free_indices.size() indices are up for reuse), then fresh
/// indices from the cumulative counter. Reads the containers, never mutates
/// them: the session commits what was consumed only once its round handler
/// succeeds.
class StreamIndexCursor {
 public:
  using Buckets = std::deque<std::pair<int64_t, std::vector<uint32_t>>>;

  StreamIndexCursor(const std::deque<uint32_t>& free_indices,
                    const Buckets& buckets, size_t reusable,
                    uint32_t next_fresh)
      : free_indices_(free_indices),
        buckets_(buckets),
        reusable_(reusable),
        next_fresh_(next_fresh) {}

  uint32_t Next() {
    if (consumed_ < free_indices_.size()) return free_indices_[consumed_++];
    if (consumed_ < reusable_) {
      ++consumed_;
      while (bucket_pos_ >= buckets_[bucket_].second.size()) {
        ++bucket_;
        bucket_pos_ = 0;
      }
      return buckets_[bucket_].second[bucket_pos_++];
    }
    return next_fresh_++;
  }

  /// Indices taken from the free list and the retiring buckets, in total.
  size_t consumed_reusable() const { return consumed_; }
  /// The cumulative counter after the fresh indices handed out so far.
  uint32_t next_fresh() const { return next_fresh_; }

 private:
  const std::deque<uint32_t>& free_indices_;
  const Buckets& buckets_;
  const size_t reusable_;
  size_t consumed_ = 0;
  size_t bucket_ = 0;
  size_t bucket_pos_ = 0;
  uint32_t next_fresh_;
};

/// Merges a round's sealed runs; keeps its split and chunk scratch across
/// rounds, so a steady-state merge allocates only when quit indices are
/// collected (one exact reserve). Single caller.
class SealedRunMerger {
 public:
  /// The chunk count for \p entries merged on \p executors threads (0 when
  /// there is no pool): one chunk without a pool, else four per executor
  /// but at most one per kMinChunkEntries entries. Chunks are claimed
  /// dynamically, so when pool workers wake late the calling thread takes
  /// a few small chunks instead of running one per executor alone.
  static int ChunkCount(size_t entries, int executors);

  /// Merges \p runs into batch->observations (resized to the total run
  /// length; any prior content is overwritten) and sets batch->num_active to
  /// the number of location entries. Each enter draws its stream index from
  /// \p cursor in merged order; the index lands in its observation and back
  /// in its SealedEntry. When \p quit_indices is non-null it receives every
  /// quit's stream index in merged order. The merge runs as \p num_chunks
  /// (>= 1) user-id ranges, on \p pool when non-null and inline otherwise;
  /// neither changes the result.
  void Merge(const std::vector<SealedRun>& runs, int num_chunks,
             ThreadPool* pool, StreamIndexCursor& cursor,
             TimestampBatch* batch, std::vector<uint32_t>* quit_indices);

 private:
  struct Cursor {
    SealedEntry* it;
    SealedEntry* end;
  };
  static constexpr size_t kCacheLine = 64;
  static constexpr int kChunksPerExecutor = 4;
  static constexpr size_t kMinChunkEntries = 4096;
  /// One user-id range: its output and scratch offsets (set by Split) and
  /// its quit and enter counts (set by the chunk).
  struct Chunk {
    size_t out_begin = 0;
    size_t quit_begin = 0;
    size_t enter_begin = 0;
    size_t num_quits = 0;
    size_t num_enters = 0;
  };

  /// Chooses the chunk boundaries and sizes every chunk's output slice and
  /// scratch region; returns the total entry count. Runs on the calling
  /// thread; the only place that grows the scratch.
  size_t Split(int num_chunks);
  /// Merges chunk \p c's range of every run into its output slice.
  void MergeChunk(int c);

  const std::vector<SealedRun>* runs_ = nullptr;
  UserObservation* out_ = nullptr;
  bool collect_quits_ = false;
  /// (num_chunks + 1) x runs: bounds_[c * runs + r] is where chunk c starts
  /// in run r; the last row holds the run lengths.
  std::vector<size_t> bounds_;
  std::vector<Chunk> chunks_;
  /// Per-chunk cursor blocks of cursor_stride_ entries (runs rounded up to
  /// a cache line), starting at the first line boundary in cursors_.
  std::vector<Cursor> cursors_;
  Cursor* cursor_base_ = nullptr;
  size_t cursor_stride_ = 0;
  std::vector<uint32_t> quits_;  ///< per-chunk regions of quit indices
  /// Per-chunk regions of the enters awaiting a stream index; until the
  /// serial pass, each one's stream_index holds its output position.
  std::vector<SealedEntry*> enters_;
};

}  // namespace retrasyn

#endif  // RETRASYN_SERVICE_SHARD_MERGE_H_
