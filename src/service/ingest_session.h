// Online ingestion of per-user trajectory events (the live counterpart of
// StreamFeeder's batch replay).
//
// A session tracks one open round (timestamp) at a time. Users push events
// for the open round in any arrival order:
//
//   Enter(user, point)  — the user's stream begins, reporting its first
//                         location this round (transition state e_c).
//   Move(user, point)   — the user reports its next location; non-adjacent
//                         jumps are clamped to the nearest reachable neighbor
//                         cell, exactly like the batch feeder (the protocol
//                         can only encode feasible transitions).
//   Quit(user)          — the user leaves; per Def. 5 the quit transition
//                         q_c carries the final location reported in the
//                         *previous* round, so Quit is only legal in a round
//                         where the user has not reported a location.
//
// Tick() closes the open round: the buffered events are turned into a
// TimestampBatch (observations ordered deterministically by user id, quit
// events first per user, so results do not depend on arrival order), users
// active in the previous round that sent nothing are quit implicitly
// (matching the paper's preprocessing that splits gapped trajectories into
// several streams), and the batch is handed to the round handler. AdvanceTo
// closes every round up to a target timestamp. A user that quit — explicitly
// or by gap — may Enter again later; that starts a fresh stream.
//
// Sharding (IngestSessionOptions::num_shards): users are partitioned across
// N shards by a hash of the user id. Each shard owns its slice of
// validation, pending-event state, and (when journaling) its own journal
// segment stream, under its own mutex — so N producer threads, each feeding
// the users of one shard (ShardOf), admit events with no shared lock on the
// hot path. Tick() briefly holds every shard's mutex (producers block at the
// round boundary; their events land in the next round), seals the shards in
// parallel on an internal pool into sorted per-shard entry runs, and merges
// the runs into the global observation order on the same pool: the user-id
// space is split into ranges the pool executors claim, each range is k-way
// merged into its own slice of the batch, and one serial pass in range order
// assigns the enters' stream indices (see service/shard_merge.h). Because
// users are disjoint across shards, the merged sequence is exactly the
// sequence a single shard's global sort produces — so the sealed batches,
// the stream-index assignment, and therefore the released bytes are
// identical to num_shards = 1 for every shard count and pool size.
// Tick/AdvanceTo remain single-caller: drive them from one thread (the
// producers may be many).
//
// Stream-index lifecycle: each new stream needs an engine-facing index, and
// over an unbounded horizon a cumulative counter leaks — the engine's dense
// per-index state grows with the highest index ever minted, even at constant
// live population. With a w-window (IngestSessionOptions::window >= 1) the
// session instead retires an index once its stream's quit round has left the
// w-window (the last round the stream could have reported in) and re-issues
// retired indices, oldest first, before minting fresh ones. Retirement is a
// pure function of the sealed batch sequence — never of round-handler timing
// — so Inline and Async round closing and journal replay all assign
// byte-identical indices. The index space is global across shards (indices
// are assigned on the merged sequence, never per shard). Fresh indices are
// capped at kMaxStreamIndex; Tick() fails with kResourceExhausted (round
// intact, retryable) instead of overflowing into the engine.
//
// All entry points validate and return retrasyn::Status instead of crashing.

#ifndef RETRASYN_SERVICE_INGEST_SESSION_H_
#define RETRASYN_SERVICE_INGEST_SESSION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "geo/state_space.h"
#include "journal/journal_writer.h"
#include "service/shard_merge.h"
#include "service/user_table.h"
#include "stream/feeder.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

/// \brief Index-lifecycle and sharding knobs for an IngestSession. The
/// service layer fills these in: the window from its engine (a
/// RetraSynEngine's config().window, 0 for any other engine) and num_shards
/// from ServiceOptions::ingest_shards. A session that recycles needs a
/// consumer — the engine behind the round handler — that applies the same
/// retirement rule to its dense per-index state (RetraSynEngine does; see
/// RetraSynEngine::retired_last_round()).
struct IngestSessionOptions {
  /// The w-event window governing retirement. >= 1: re-issue the index of a
  /// quitted stream once its quit round has left the window; 0: grow the
  /// cumulative counter (for engines that need not tolerate index reuse).
  int window = 0;
  /// User shards (>= 1). Events route to shard ShardOf(user, num_shards);
  /// each shard has its own mutex, state slice, and journal stream.
  int num_shards = 1;
  /// Service-owned telemetry bundle (not owned; may be null). When attached,
  /// ingest counters register in its registry, Tick() phases land in its
  /// RoundTrace, and boundary poisonings record a first-failure. When null
  /// the session registers its counters in a private registry, so the hot
  /// path updates them unconditionally.
  Telemetry* telemetry = nullptr;
};

/// \brief Everything a checkpoint needs to reconstruct a session at a round
/// boundary (where pending events are empty by construction). Captured via
/// IngestSession::SaveCheckpointState and reinstated on recovery via
/// RestoreCheckpointState; containers are in deterministic order so two
/// captures of the same logical state serialize byte-identically — and the
/// format is shard-count agnostic (active streams are merged in user order
/// on save and re-distributed by ShardOf on restore), so the same checkpoint
/// bytes describe the same logical session under any sharding.
struct SessionCheckpointState {
  int64_t open_round = 0;
  uint32_t next_stream_index = 0;
  struct ActiveEntry {
    uint64_t user = 0;
    uint32_t stream_index = 0;
    CellId last_cell = 0;
  };
  /// Live streams, sorted by user id.
  std::vector<ActiveEntry> active;
  /// Quit-round buckets awaiting retirement, oldest first.
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> quitted_at;
  /// Retired indices awaiting reuse, FIFO in retirement order.
  std::deque<uint32_t> free_indices;
};

class IngestSession {
 public:
  /// Receives each closed round's batch (timestamps are sequential from 0).
  /// A non-OK return aborts the Tick and is surfaced to the caller; the
  /// round then remains open with its events intact — Tick() commits no
  /// session state (stream indices included) until the handler succeeds, so
  /// a retried Tick() hands the handler a byte-identical batch. The batch is
  /// passed by value so an asynchronous handler can take ownership.
  using RoundHandler = std::function<Status(TimestampBatch batch)>;

  IngestSession(const StateSpace& states, RoundHandler handler,
                IngestSessionOptions options = {});

  /// The shard \p user's events route to under \p num_shards shards — a
  /// mixed hash, so sequential user ids spread evenly. Producer threads that
  /// partition users by this function never contend on a shard mutex.
  static uint32_t ShardOf(uint64_t user, int num_shards);

  int num_shards() const { return static_cast<int>(shards_.size()); }

  /// Journals every accepted event through \p journals — exactly one per
  /// shard (shard i's accepted events and round boundaries append to
  /// \p journals[i]; not owned) — or detaches on an empty vector. Appends
  /// happen after validation and *before* the session commits any state,
  /// extending Tick()'s error-atomic contract to durability: an event the
  /// journal did not accept is not buffered. A round whose boundary record
  /// did not reach the journal is the one exception — the handler has
  /// already consumed the batch by then, so the round commits in memory,
  /// the Tick returns the journal error, and the failure poisons every
  /// later entry point (the journal never silently diverges by more than
  /// that one boundary record). A boundary-append failure on ANY shard
  /// poisons the whole session — otherwise healthy shards would keep
  /// journaling events for rounds their sibling's journal never closed, and
  /// the shard streams would diverge beyond the one-boundary contract.
  void AttachJournals(std::vector<JournalWriter*> journals);

  /// Begins a new stream for \p user, reporting \p location this round.
  /// Fails if the user is already active or has already reported this round.
  /// Thread-safe across users of different shards.
  Status Enter(uint64_t user, const Point& location);

  /// Reports \p user's next location this round. Fails if the user never
  /// entered, already quit, or has already reported this round.
  /// Thread-safe across users of different shards.
  Status Move(uint64_t user, const Point& location);

  /// Ends \p user's stream; the quit transition carries the location reported
  /// in the previous round. Fails on double quit or when the user has
  /// Moved this round (quit the round after the final report, or simply stop
  /// sending — silent users are quit automatically). A Quit after an Enter
  /// in the same open round cancels the pending enter instead: no report was
  /// sent yet, so the aborted stream never existed.
  /// Thread-safe across users of different shards.
  Status Quit(uint64_t user);

  /// Closes the open round and advances to the next timestamp. Single
  /// caller; holds every shard's mutex for the duration (producers block at
  /// the boundary and their events land in the next round).
  Status Tick();

  /// Closes rounds until \p t is the open round. Fails when \p t lies in the
  /// past (already-closed rounds are immutable).
  Status AdvanceTo(int64_t t);

  /// The timestamp events currently apply to. Rounds [0, open_round()) are
  /// closed.
  int64_t open_round() const { return open_round_; }

  /// Users holding a live stream: reported a location in the last closed
  /// round and not yet quit this round, or entered in the open one.
  size_t num_active_users() const;

  /// Events buffered for the open round.
  size_t num_pending_events() const;

  /// Returns a consumed batch's observation buffer to the seal pool so the
  /// next round seals into it instead of allocating. Called by the service
  /// after the engine observed the batch — from the closer worker under
  /// SyncPolicy::kAsync, so it is thread-safe.
  void RecycleBatch(TimestampBatch&& batch);

  /// High-water mark of the cumulative index counter: the next index a fresh
  /// stream would mint when no retired index is available. With recycling
  /// this stays bounded by peak concurrent streams + one window of churn;
  /// without it, it counts every stream ever started.
  uint32_t index_high_water() const { return next_stream_index_; }

  /// Retired indices currently available for reuse.
  size_t num_free_indices() const { return free_indices_.size(); }

  /// Quitted indices still inside the w-window, awaiting retirement.
  size_t num_retiring_indices() const;

  /// Test-only: fast-forwards the cumulative counter so the kMaxStreamIndex
  /// exhaustion path is reachable without minting a billion streams.
  void set_next_stream_index_for_testing(uint32_t next) {
    next_stream_index_ = next;
  }

  /// Captures the session's round-boundary state for a checkpoint. Only legal
  /// between rounds — no buffered events — which the round-commit hook point
  /// satisfies by construction (the hook fires while Tick still holds every
  /// shard mutex, so no extra synchronization is needed or taken here).
  SessionCheckpointState SaveCheckpointState() const;

  /// Reinstates checkpointed state into a freshly constructed session (no
  /// rounds closed, no events buffered). Validates index-lifecycle integrity
  /// — every index below the high-water mark, held in at most one place —
  /// and refuses corrupt state with kInvalidArgument. Active streams are
  /// distributed to shards by ShardOf, so a checkpoint restores under any
  /// shard count (the journal fingerprint, not the checkpoint, pins it).
  Status RestoreCheckpointState(SessionCheckpointState state);

  /// Invoked at the end of every successful Tick() — after the round has
  /// committed in memory AND its boundary record reached every shard's
  /// journal — with the sealed round's timestamp. The checkpoint subsystem
  /// hooks this to capture SaveCheckpointState() at a consistent boundary; a
  /// checkpoint therefore never describes a round the journal does not hold.
  void SetRoundCommitHook(std::function<void(int64_t)> hook) {
    commit_hook_ = std::move(hook);
  }

 private:
  /// One user partition: its own mutex, user table, journal stream, seal
  /// scratch, and counters. Producers lock exactly one shard per event;
  /// Tick() locks them all.
  struct Shard {
    mutable Mutex mu;
    /// One row per user with a live stream or a report buffered this round
    /// (pending bits stamped with the open round; see UserTable).
    UserTable table GUARDED_BY(mu);
    size_t num_live GUARDED_BY(mu) = 0;  ///< rows holding a live stream
    size_t num_pending_enters GUARDED_BY(mu) = 0;
    size_t num_pending_events GUARDED_BY(mu) = 0;
    size_t num_pending_quits GUARDED_BY(mu) = 0;
    /// Quits (explicit or by lapse) in the last sealed run.
    size_t num_sealed_quits GUARDED_BY(mu) = 0;
    /// High-water mark of num_pending_events, mirrored into
    /// peak_pending_metric when it rises. Only this shard writes that gauge,
    /// always under mu, so a plain compare replaces the gauge's CAS loop.
    size_t peak_pending GUARDED_BY(mu) = 0;
    /// Not owned; null = no journaling. The pointer itself is guarded (swapped
    /// by AttachJournals, read by producers); the pointee synchronizes
    /// internally where it is shared (TakeSealedSegments / presync).
    JournalWriter* journal GUARDED_BY(mu) = nullptr;
    /// Seal scratch: the round's entry run, sorted by (user, phase) each
    /// round; reused across rounds.
    std::vector<SealedEntry> entries GUARDED_BY(mu);
    /// The radix sort's ping-pong partner of entries, kept the same size; the
    /// two swap when the sorted run lands here. Grown with entries at the
    /// first seal.
    std::vector<SealedEntry> radix_scratch GUARDED_BY(mu);
    /// Registry-backed counters (stable pointers into registry_; set once in
    /// the constructor).
    Counter* accepted_metric = nullptr;
    Counter* rejected_metric = nullptr;
    Gauge* pending_metric = nullptr;
    Gauge* peak_pending_metric = nullptr;
    Gauge* active_metric = nullptr;
  };

  Shard& shard_of(uint64_t user) {
    return *shards_[ShardOf(user, static_cast<int>(shards_.size()))];
  }

  /// RAII all-shards acquisition in ascending index order — the documented
  /// Tick-time protocol (producers lock exactly one shard, so index order
  /// alone rules out deadlock). A variable-count acquisition is outside the
  /// analysis's vocabulary, so the constructor/destructor opt out and every
  /// user re-establishes per-shard custody with shard.mu.AssertHeld().
  class ShardLockSet {
   public:
    explicit ShardLockSet(const std::vector<std::unique_ptr<Shard>>& shards)
        NO_THREAD_SAFETY_ANALYSIS : shards_(shards) {
      for (const auto& shard : shards_) shard->mu.Lock();
    }
    ~ShardLockSet() NO_THREAD_SAFETY_ANALYSIS {
      for (auto it = shards_.rbegin(); it != shards_.rend(); ++it) {
        (*it)->mu.Unlock();
      }
    }
    ShardLockSet(const ShardLockSet&) = delete;
    ShardLockSet& operator=(const ShardLockSet&) = delete;

   private:
    const std::vector<std::unique_ptr<Shard>>& shards_;
  };

  /// The sticky session-wide failure set when a round-boundary record missed
  /// any shard's journal (OK while healthy). Checked by every entry point.
  Status BoundaryPoison() const;

  Status EnterLocked(Shard& shard, uint64_t user, const Point& location)
      REQUIRES(shard.mu);
  Status MoveLocked(Shard& shard, uint64_t user, const Point& location)
      REQUIRES(shard.mu);
  Status QuitLocked(Shard& shard, uint64_t user) REQUIRES(shard.mu);

  /// Publishes shard.num_pending_events to the pending gauge, and to the
  /// peak gauge when it sets a new high.
  static void PublishPending(Shard& shard) REQUIRES(shard.mu);

  /// Sizes \p shard's entry run and radix scratch for the round being
  /// sealed: every live stream seals exactly one entry (a move, or a quit —
  /// explicit or by lapse) and every pending enter one more. Grows
  /// geometrically, so steady-state rounds allocate nothing.
  static void SizeSealBuffers(Shard& shard) REQUIRES(shard.mu);

  /// Builds \p shard's sorted entry run for the round being sealed: one
  /// linear pass over its table copies each report's admission-resolved
  /// state and counts the quits, then a radix sort on the user id orders the
  /// run. Pure per-shard work (runs on the seal pool while the Tick thread
  /// holds every shard mutex); mutates only the shard's scratch, never its
  /// committed state.
  void SealShard(Shard& shard) REQUIRES(shard.mu);
  /// Applies the sealed round to \p shard's table, in place through each
  /// entry's slot: quits erase the row, locations overwrite it (the new
  /// last_cell decoded from the entry's state). O(events), no lookups,
  /// allocation-free at steady state.
  void CommitShard(Shard& shard) REQUIRES(shard.mu);

  /// Pops a recycled observation buffer or returns a fresh one. \p reused
  /// reports which.
  std::vector<UserObservation> AcquireObservationBuffer(bool* reused);

  /// Registers the session's metrics (called once from the constructor).
  void RegisterMetrics();
  /// Stamps the wall of the first event admitted into the open round, for
  /// the RoundTrace admit phase. Only called when a trace is attached.
  void NoteAdmission();

  const StateSpace* states_;
  const SpatialGrid* grid_;
  RoundHandler handler_;
  IngestSessionOptions options_;
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Seal/merge/commit executors for num_shards > 1 (null otherwise): sized
  /// min(num_shards, hardware). Pool size never affects bytes — per-shard
  /// work is a pure function of the shard, and the merge's user-id ranges
  /// have every output offset fixed before any of them runs.
  std::unique_ptr<ThreadPool> seal_pool_;
  // Tick-thread lifecycle state (commit_hook_, open_round_,
  // next_stream_index_, and quitted_at_/free_indices_ below): written only by
  // the single Tick/AdvanceTo caller while it holds every shard mutex.
  // open_round_ is additionally read by producers inside the *Locked helpers
  // (error messages) under their one shard mutex — "any shard lock to read,
  // all shard locks to write", a protocol GUARDED_BY cannot name (see
  // docs/concurrency.md).
  std::function<void(int64_t)> commit_hook_;
  int64_t open_round_ = 0;
  uint32_t next_stream_index_ = 0;
  /// Merge inputs and scratch, kept across rounds: one run per shard
  /// (pointing into the shard's entries while Tick holds its mutex) and the
  /// merger's split and per-chunk regions.
  std::vector<SealedRun> sealed_runs_;
  SealedRunMerger merger_;

  /// Round-boundary journal poison: set once by Tick (single caller), read
  /// by concurrent producers. poison_status_ is written before the release
  /// store and never mutated after.
  std::atomic<bool> boundary_poisoned_{false};
  Status poison_status_;

  // Recycled observation buffers: consumed batches come
  // back through RecycleBatch — possibly from the async closer worker —
  // and the next Tick seals into one instead of allocating.
  mutable Mutex obs_pool_mu_;
  std::vector<std::vector<UserObservation>> obs_pool_ GUARDED_BY(obs_pool_mu_);

  // Telemetry plumbing. registry_ always points at a live registry — the
  // service's (options_.telemetry) or the session-private owned_registry_ —
  // so the Tick-phase aggregates and shard counters have exactly one home.
  // trace_/telemetry_ stay null when detached; those paths are skipped.
  Telemetry* telemetry_ = nullptr;
  std::unique_ptr<MetricsRegistry> owned_registry_;
  MetricsRegistry* registry_ = nullptr;
  RoundTrace* trace_ = nullptr;
  Counter* rounds_sealed_metric_ = nullptr;
  Counter* entries_merged_metric_ = nullptr;
  Counter* obs_buffers_reused_metric_ = nullptr;
  LatencyHistogram* seal_hist_ = nullptr;
  LatencyHistogram* merge_hist_ = nullptr;
  LatencyHistogram* commit_hist_ = nullptr;
  /// Steady-clock stamp of the first event admitted into the open round
  /// (0 = none yet); CAS-set by producers, consumed by Tick for the admit
  /// phase. Only touched when trace_ is attached.
  std::atomic<int64_t> round_admit_start_ns_{0};

  // Index lifecycle (window >= 1 only; both containers stay empty
  // otherwise). Global across shards — indices are assigned on the merged
  // batch sequence. An index lives in at most one place: a quitted_at_
  // bucket while its quit round is inside the w-window, then free_indices_
  // until it is re-issued.
  /// Quitted indices bucketed by the round their quit observation sealed
  /// into; a bucket retires into free_indices_ once that round leaves the
  /// w-window. Within a bucket, indices follow the batch's user-id order —
  /// deterministic, like everything else about retirement.
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> quitted_at_;
  /// Retired indices awaiting reuse, FIFO in retirement order.
  std::deque<uint32_t> free_indices_;
};

}  // namespace retrasyn

#endif  // RETRASYN_SERVICE_INGEST_SESSION_H_
