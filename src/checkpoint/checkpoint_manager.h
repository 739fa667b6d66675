// Periodic checkpoint writer + journal compactor.
//
// The manager turns the unbounded-replay recovery model (PR 4) into an
// O(window) one: every `every_rounds` closed rounds it captures the full
// service state — engine and ingest session — on the threads that own them,
// pairs the two halves by round, and hands them to a single background
// worker that:
//
//   1. spills the engine's closed synthetic streams to a `history-*.hst`
//      file (when spill_history is on), so steady-state RSS stays flat while
//      SnapshotRelease still serves the complete history;
//   2. writes `checkpoint-*.ckpt` atomically (tmp + fsync + rename + dir
//      fsync) — a crash never leaves a half-written checkpoint under its
//      final name;
//   3. prunes all but the newest kRetainedCheckpoints checkpoints; and
//   4. retires journal segments that ended at or before the oldest retained
//      checkpoint's round minus the w-window, through the BASE declaration
//      of journal_compaction.h — recovery then replays only the suffix.
//
// Capture happens at round boundaries on the owning threads (the session
// half on the ingest thread via the round-commit hook, the engine half on
// the round-closing thread right after Observe), so the worker never touches
// live state; it serializes privately owned copies. The first I/O failure
// poisons the manager exactly like JournalWriter: status() turns sticky,
// later captures are dropped, and the service surfaces the error on the
// next Tick — the journal itself is unaffected, so nothing durable is lost.

#ifndef RETRASYN_CHECKPOINT_CHECKPOINT_MANAGER_H_
#define RETRASYN_CHECKPOINT_CHECKPOINT_MANAGER_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "checkpoint/checkpoint_format.h"
#include "common/mutex.h"
#include "common/status.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "stream/cell_stream.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

struct CheckpointOptions {
  /// Directory for checkpoint and history spill files. Owned by the service
  /// that owns the journal (the journal LOCK covers both).
  std::string dir;
  /// Write a checkpoint every N closed rounds; 0 disables checkpointing.
  int64_t every_rounds = 0;
  /// Move closed synthetic streams out of memory into history spill files at
  /// every checkpoint; SnapshotRelease reads them back on demand.
  bool spill_history = true;
  /// Deployment fingerprint stamped into every file (same hash the journal
  /// carries); a checkpoint only loads into the deployment that wrote it.
  uint64_t fingerprint = 0;
  /// The grid's canonical Describe() bytes, stored verbatim in every
  /// checkpoint body so recovery can verify the discretization exactly (the
  /// fingerprint above already hashes them; the copy makes the refusal
  /// message precise and the format self-describing).
  std::string grid_describe;
  /// The w-event window; journal retirement keeps a full window of rounds
  /// behind the oldest retained checkpoint.
  int window = 0;
  /// The journal directories compaction retires segments from — one per
  /// ingest shard (a single entry for unsharded deployments); empty disables
  /// retirement (checkpoints still bound recovery *time*, not disk). Every
  /// shard journal carries one boundary record per round, so one cutoff
  /// round drives retirement in all of them independently.
  std::vector<std::string> journal_dirs;

  Status Validate() const;
};

class CheckpointManager {
 public:
  /// Newest checkpoints kept on disk; older ones are pruned. Two, so a
  /// checkpoint corrupted in place still leaves a bounded-replay recovery
  /// path.
  static constexpr size_t kRetainedCheckpoints = 2;

  /// What a checkpoint directory holds, read by one listing that changes
  /// nothing: the rounds of its checkpoint and history spill files
  /// (ascending) and the orphaned `*.tmp` files of atomic writes that never
  /// renamed.
  struct DirContents {
    std::vector<int64_t> checkpoints;
    std::vector<int64_t> histories;
    std::vector<std::string> temp_files;
  };

  /// Lists \p dir; a missing directory holds nothing.
  static Result<DirContents> ListDir(const std::string& dir);

  /// Opens the manager over options.dir (created if missing), seeded with
  /// what recovery found: \p spill_rounds, the spill manifest of the
  /// restored checkpoint (served file-backed from day one); \p
  /// retained_rounds, the surviving checkpoint rounds in ascending order
  /// (retention); and, per entry of options.journal_dirs in the same order,
  /// the journal writer whose sealed segments retirement may delete (not
  /// owned) and the scan whose segments become retirement candidates that
  /// the writer continues. A fresh deployment passes empty lists and scans.
  /// The manager records its metrics, checkpoint trace phase and first
  /// failure in \p telemetry (not owned; must outlive it).
  /// Observation-only: no effect on what is written, pruned, or retired.
  static Result<std::unique_ptr<CheckpointManager>> Open(
      const CheckpointOptions& options, std::vector<JournalWriter*> journals,
      const std::vector<JournalScan>& scans, std::vector<int64_t> spill_rounds,
      std::vector<int64_t> retained_rounds, Telemetry& telemetry);

  /// Loads the newest usable checkpoint of \p dir, whose ListDir result is
  /// \p contents, for recovery: deletes the orphaned tmp files, then tries
  /// checkpoints newest-first, skipping (and deleting) corrupt ones — torn
  /// frame, CRC failure, malformed body, missing referenced spill file — and
  /// returns the first that loads. A checkpoint that is structurally VALID
  /// but carries a different deployment fingerprint fails loudly with
  /// FailedPrecondition instead of falling back: silently replaying the full
  /// journal under a changed deployment is exactly the divergence the
  /// fingerprint exists to prevent. kNotFound when no checkpoint exists.
  /// On success \p surviving_rounds holds the retained checkpoint rounds
  /// (for retention seeding) and unreferenced history files are deleted.
  /// \p corrupt_skipped (optional) counts the corrupt checkpoints the
  /// newest-first ladder deleted before finding a usable one — the
  /// recovery fallback depth surfaced in telemetry.
  static Result<CheckpointState> LoadForRecovery(
      const std::string& dir, DirContents contents, uint64_t fingerprint,
      std::vector<int64_t>* surviving_rounds,
      int* corrupt_skipped = nullptr);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;
  ~CheckpointManager();

  /// True when a checkpoint is due at the round boundary that sealed round
  /// \p t — i.e. every `every_rounds` closed rounds.
  bool DueAt(int64_t sealed_round) const {
    return options_.every_rounds > 0 &&
           (sealed_round + 1) % options_.every_rounds == 0;
  }

  /// Engine half, from the round-closing thread right after Observe(t).
  /// \p spilled holds the closed streams taken from the engine this round
  /// (empty when spill_history is off); they are servable from memory
  /// immediately and from their spill file once the worker persists them.
  void OnRoundClosed(int64_t sealed_round, EngineCheckpointState engine,
                     std::vector<CellStream> spilled);

  /// Session half, from the ingest thread's round-commit hook.
  void OnRoundCommitted(int64_t sealed_round, SessionCheckpointState session);

  /// Appends every spilled stream to \p out in spill order (ascending
  /// checkpoint round, original order within). The caller appends the
  /// engine's in-memory snapshot after — the concatenation reproduces the
  /// no-spill snapshot byte-for-byte.
  Status AppendSpilledHistory(CellStreamSet* out) const
      EXCLUDES(spill_mu_);
  bool has_spilled_history() const EXCLUDES(spill_mu_);

  /// Sticky first failure (OK while healthy).
  Status status() const EXCLUDES(mu_);

  /// Blocks until the worker has drained every ready checkpoint; returns
  /// status(). Used by Drain and tests for deterministic error surfacing.
  Status WaitIdle() EXCLUDES(mu_);

  uint64_t checkpoints_written() const EXCLUDES(mu_);
  uint64_t segments_retired() const EXCLUDES(mu_);
  uint64_t streams_spilled() const EXCLUDES(spill_mu_);
  /// The newest durable checkpoint's round; -1 before the first one.
  int64_t last_checkpoint_round() const EXCLUDES(mu_);

  const CheckpointOptions& options() const { return options_; }

 private:
  /// A spilled batch of closed streams: memory-backed until its file is
  /// durable, file-backed after.
  struct SpillEntry {
    int64_t round = 0;
    uint64_t count = 0;
    bool file_backed = false;
    std::vector<CellStream> streams;  ///< empty once file_backed
  };

  /// The two capture halves of one due round, paired by round.
  struct PendingCapture {
    bool have_engine = false;
    bool have_session = false;
    EngineCheckpointState engine;
    SessionCheckpointState session;
  };

  /// Per-journal retirement bookkeeping, one per options.journal_dirs entry.
  struct JournalRetireState {
    std::string dir;
    JournalWriter* writer = nullptr;  ///< not owned; set once by Open
    // Worker-only once the worker owns it.
    std::vector<SealedSegment> candidates;  ///< sorted by index
    uint64_t first_live = 0;   ///< lowest journal index not retired
    bool first_live_known = false;
    int64_t retired_base_round = 0;  ///< rounds summarized by retired prefix
  };

  CheckpointManager(CheckpointOptions options, Telemetry& telemetry);

  void WorkerLoop() EXCLUDES(mu_);
  /// One full checkpoint: spill file, checkpoint file, pruning, retirement.
  /// Runs on the worker with mu_ released (file I/O must not block captures);
  /// takes mu_/spill_mu_ briefly for the shared touches inside.
  Status WriteCheckpoint(int64_t round, EngineCheckpointState engine,
                         SessionCheckpointState session)
      EXCLUDES(mu_, spill_mu_);
  Status PruneCheckpoints();
  Status RetireJournalPrefix() EXCLUDES(mu_);
  void MaybeEnqueueLocked(int64_t round) REQUIRES(mu_);

  const CheckpointOptions options_;

  mutable Mutex mu_;
  CondVar cv_;
  std::thread worker_;
  bool stop_ GUARDED_BY(mu_) = false;
  bool busy_ GUARDED_BY(mu_) = false;
  Status error_ GUARDED_BY(mu_);  ///< first failure; sticky
  /// Halves awaiting their pair.
  std::map<int64_t, PendingCapture> pending_ GUARDED_BY(mu_);
  /// Fully captured rounds.
  std::deque<int64_t> ready_ GUARDED_BY(mu_);

  // Handoff-owned retirement state, deliberately NOT mutex-guarded: Open
  // seeds journals_ and retained_rounds_ before the worker starts, and from
  // then on the worker thread owns them exclusively, mutating them with file
  // I/O interleaved (it must not hold mu_ across that). Each
  // JournalRetireState::writer is fixed by Open and only read after; the
  // writer's TakeSealedSegments is itself thread-safe.
  std::vector<JournalRetireState> journals_;
  std::vector<int64_t> retained_rounds_;       ///< on-disk checkpoints, asc

  /// Leaf lock, ordered after mu_ (nothing nests them today; anything that
  /// must takes mu_ first, never the reverse).
  mutable Mutex spill_mu_ ACQUIRED_AFTER(mu_);
  /// Ascending by round.
  std::vector<SpillEntry> spills_ GUARDED_BY(spill_mu_);
  uint64_t streams_spilled_ GUARDED_BY(spill_mu_) = 0;

  uint64_t checkpoints_written_ GUARDED_BY(mu_) = 0;
  uint64_t segments_retired_ GUARDED_BY(mu_) = 0;
  int64_t last_checkpoint_round_ GUARDED_BY(mu_) = -1;

  // Telemetry, registered by the constructor before the worker starts (so
  // the worker and capture threads read the pointers without a lock); never
  // null.
  Telemetry& telemetry_;
  Counter* writes_metric_ = nullptr;
  Counter* bytes_metric_ = nullptr;
  Counter* prunes_metric_ = nullptr;
  Counter* segments_retired_metric_ = nullptr;
  Counter* spills_metric_ = nullptr;
  Counter* poisonings_metric_ = nullptr;
  Gauge* last_round_metric_ = nullptr;
  LatencyHistogram* write_hist_ = nullptr;
};

}  // namespace retrasyn

#endif  // RETRASYN_CHECKPOINT_CHECKPOINT_MANAGER_H_
