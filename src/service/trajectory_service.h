// The long-running service layer around a stream-release engine: the public
// entry point for real-time synthesis under w-event LDP.
//
//   auto service = TrajectoryService::Create(states, config).ValueOrDie();
//   service->AddSink(&release_server);          // push-based consumers
//   IngestSession& session = service->session();
//   session.Enter(42, {x, y});                  // per-user events, any order
//   session.Tick();                             // close the round
//   auto snapshot = service->SnapshotRelease(); // live synthetic database
//
// Unlike the batch pipeline (StreamFeeder + a bare engine), the
// service accepts reports while the stream is open, pushes each round's
// release to subscribed ReleaseSinks, and serves non-destructive snapshots of
// the evolving synthetic database at any time. Fully materialized
// StreamDatabases replay through the same path via ReplayDatabase (replay.h).
//
// Round closing runs under one of two policies (ServiceOptions::sync_policy,
// which RetraSynConfig inherits):
//
//   SyncPolicy::kInline — Tick() runs collection + model update + synthesis
//     + sink delivery on the calling thread. A handler/sink failure fails
//     the Tick, which rolls back and may be retried.
//   SyncPolicy::kAsync  — Tick() seals the round and enqueues it on a
//     bounded queue (backpressure / round_queue_capacity control a full
//     queue); a background closer runs the heavy step and sinks receive
//     releases strictly in round order on a delivery worker. Call Drain()
//     before SnapshotRelease(). Failures surface on the next Tick()/Drain().
//     For a fixed (seed, num_threads) the released bytes equal kInline's.
//
// Durability (optional, ServiceOptions::journal_dir): every accepted event
// is appended to a segmented write-ahead journal before the session commits
// it, and TrajectoryService::Recover rebuilds a byte-identical service from
// the journal after a crash. See docs/durability.md.
//
// The session/service surface is single-threaded: drive each service from
// one ingest thread (the workers it owns are internal).

#ifndef RETRASYN_SERVICE_TRAJECTORY_SERVICE_H_
#define RETRASYN_SERVICE_TRAJECTORY_SERVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "checkpoint/checkpoint_manager.h"
#include "common/mutex.h"
#include "common/status.h"
#include "core/engine.h"
#include "core/release_sink.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "service/ingest_session.h"
#include "service/round_closer.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

class TrajectoryService {
 public:
  /// Builds a RetraSyn engine from \p config and wraps it in a service:
  /// CreateWithEngine over a new RetraSynEngine. Returns InvalidArgument (via
  /// RetraSynConfig::Validate) instead of crashing on a nonsensical
  /// configuration. \p states must outlive the service.
  static Result<std::unique_ptr<TrajectoryService>> Create(
      const StateSpace& states, const RetraSynConfig& config);

  /// Wraps \p engine (a RetraSynEngine, an ablation variant, an LDP-IDS
  /// baseline); the service takes ownership. The engine type decides the
  /// rest: over a RetraSynEngine the session re-issues a quitted stream's
  /// index once its quit round has left the engine's w-window (the engine
  /// retires the matching dense state by the same rule) and the journal
  /// fingerprint binds the engine's config; any other engine gets
  /// cumulative stream indices (it need not tolerate reuse) and a
  /// fingerprint over its self-reported name. Pass a RetraSynConfig as
  /// \p options to take its service fields.
  static Result<std::unique_ptr<TrajectoryService>> CreateWithEngine(
      const StateSpace& states, std::unique_ptr<StreamReleaseEngine> engine,
      const ServiceOptions& options = {});

  /// Rebuilds a crashed service from its event journal
  /// (\p config.journal_dir): RecoverWithEngine over a new RetraSynEngine.
  /// Recovery takes the journal's writer lock (so a live writer can never be
  /// truncated underneath — FailedPrecondition if one holds it), verifies
  /// the journal's deployment fingerprint against \p states + the engine
  /// (FailedPrecondition on mismatch: replaying under a changed deployment
  /// would silently diverge), scans the segments, physically truncates a
  /// torn tail in the final segment (at the first incomplete or
  /// checksum-failing record), replays every surviving event through a fresh
  /// session *inline* — byte-identical state by the Inline-vs-Async
  /// invariant — then re-arms the async closer (under SyncPolicy::kAsync)
  /// and reopens the journal for appending in a new segment. The recovered
  /// service is byte-identical to the pre-crash one as of its last durable
  /// round boundary; events journaled after that boundary are re-buffered
  /// into the open round. A missing or empty journal recovers to a fresh
  /// service, so deployments can always boot through Recover. Sinks are not
  /// replayed — attach them afterwards (they start with the next closed
  /// round; ReleaseServer instances that must cover the recovered prefix can
  /// be rebuilt from SnapshotRelease).
  static Result<std::unique_ptr<TrajectoryService>> Recover(
      const StateSpace& states, const RetraSynConfig& config);

  /// The Recover counterpart of CreateWithEngine: the caller reconstructs
  /// the engine exactly as it did before the crash. Because the fingerprint
  /// follows the engine type, a journal written through either Create
  /// factory recovers through either Recover factory over an identically
  /// built engine. For a custom engine the fingerprint binds only the state
  /// space, its self-reported name and the shard count; config equality
  /// beyond that is the caller's contract, exactly as byte-identical replay
  /// is. \p options must name the journal via ServiceOptions::journal_dir.
  static Result<std::unique_ptr<TrajectoryService>> RecoverWithEngine(
      const StateSpace& states, std::unique_ptr<StreamReleaseEngine> engine,
      const ServiceOptions& options);

  /// Joins the async workers, discarding rounds still queued; Drain() first
  /// to guarantee every submitted round reached the engine and sinks.
  ~TrajectoryService();

  /// The ingestion endpoint. Rounds closed through it drive the engine and
  /// notify sinks.
  IngestSession& session() { return *session_; }
  const IngestSession& session() const { return *session_; }

  /// Subscribes \p sink (not owned; must outlive the service) to every
  /// subsequently closed round. Safe to call mid-stream; the sink starts
  /// receiving with the next round closed after the subscription (releases
  /// are only built for rounds that close with at least one sink attached).
  void AddSink(ReleaseSink* sink);

  /// Rounds accepted by the session. Under kAsync this counts rounds still
  /// in the closing pipeline; the engine has consumed all of them only after
  /// a successful Drain().
  int64_t rounds_closed() const { return session_->open_round(); }

  /// Barrier: returns once every accepted round has been closed and its
  /// release delivered to the sinks, surfacing any deferred pipeline error
  /// (sticky). Immediate under kInline. Required before SnapshotRelease()
  /// under kAsync.
  Status Drain();

  /// Non-destructive snapshot of the synthetic database over the rounds
  /// closed so far. The stream stays open; snapshot as often as needed.
  /// Fails with FailedPrecondition before the first closed round or when
  /// async rounds are still in flight (Drain() first).
  Result<CellStreamSet> SnapshotRelease() const;

  /// Snapshot over an explicit horizon >= rounds_closed() (e.g. the full
  /// planned stream length, for comparison against ground truth indices).
  Result<CellStreamSet> SnapshotRelease(int64_t num_timestamps) const;

  const StreamReleaseEngine& engine() const { return *engine_; }

  /// Snapshot of the unified telemetry subsystem: every registered metric
  /// (counters, gauges, latency histograms across ingest, closing,
  /// synthesis, journal, and checkpoint), the recent per-round phase traces,
  /// and the first sticky failure. `enabled` is false — and everything else
  /// empty — when ServiceOptions::enable_telemetry is off. Render with
  /// PrometheusText() (telemetry/prometheus_writer.h) for scraping.
  TelemetrySnapshot telemetry() const;

  /// The attached event journal — shard 0's under sharded ingestion;
  /// nullptr when journaling is disabled.
  const JournalWriter* journal() const {
    return journals_.empty() ? nullptr : journals_.front().get();
  }
  /// Shard \p shard's journal; nullptr when journaling is disabled.
  const JournalWriter* journal(size_t shard) const {
    return shard < journals_.size() ? journals_[shard].get() : nullptr;
  }
  size_t num_journals() const { return journals_.size(); }

  /// The checkpoint + compaction subsystem; nullptr when disabled.
  const CheckpointManager* checkpoint() const { return checkpoint_.get(); }

  /// The underlying engine when it is a RetraSynEngine (always the case for
  /// Create()-built services); nullptr otherwise. Exposes privacy accounting
  /// (budget ledger, report tracker) to auditors.
  const RetraSynEngine* retrasyn_engine() const { return retrasyn_; }

 private:
  /// Wraps \p engine in an un-journaled service whose async closer (under
  /// kAsync) is not armed yet: the factories attach the checkpoint and
  /// journal subsystems, and Recover replays the journal inline, before
  /// ArmCloser.
  TrajectoryService(const StateSpace& states,
                    std::unique_ptr<StreamReleaseEngine> engine,
                    const ServiceOptions& options);

  /// The w-event window the engine keeps: a RetraSynEngine's
  /// config().window, by which the session recycles stream indices and
  /// checkpoint compaction retains journal behind each checkpoint; 0 for
  /// any other engine (cumulative indices, no window kept).
  int window() const {
    return retrasyn_ != nullptr ? retrasyn_->config().window : 0;
  }
  /// Hash of everything the replayed byte stream depends on, stamped into
  /// every journal segment header and checkpoint.
  uint64_t DeploymentFingerprint() const;

  /// Builds the async round-closing pipeline (kAsync only).
  void ArmCloser(const ServiceOptions& options);
  /// Adopts the per-shard journal writers (none = journaling disabled):
  /// every accepted event and round boundary appends to them from now on.
  void AttachJournals(std::vector<std::unique_ptr<JournalWriter>> journals);
  /// Adopts the checkpoint subsystem (null = disabled).
  void AttachCheckpoint(std::unique_ptr<CheckpointManager> checkpoint);
  /// Feeds recovered events through the (inline) session, round-locked
  /// across the shard journals: each scan's events are bucketed into rounds
  /// by its boundary records (numbered from its own base round), rounds
  /// before \p resume_round are skipped — a restored checkpoint already
  /// holds their effect — and rounds up to \p target_round (the durable
  /// minimum across shards) are Ticked; trailing events re-buffer into the
  /// open round.
  Status ReplayJournals(const std::vector<JournalScan>& scans,
                        int64_t resume_round, int64_t target_round);
  /// The session's round handler: inline, runs the round to completion;
  /// async, submits it to the closer.
  Status OnRound(TimestampBatch batch);
  /// The heavy round step: engine Observe + release construction. Runs on
  /// the ingest thread (kInline) or the closer worker (kAsync).
  Result<RoundRelease> CloseRound(const TimestampBatch& batch);
  /// Fans \p round out to the subscribed sinks, stopping at the first error.
  Status Deliver(const RoundRelease& round);

  /// Declared first so it is destroyed LAST: every component below holds raw
  /// pointers into its registry/trace until its own destructor runs. Null
  /// when telemetry is disabled.
  std::unique_ptr<Telemetry> telemetry_;

  const StateSpace* states_;
  std::unique_ptr<StreamReleaseEngine> engine_;
  /// engine_ when it is a RetraSynEngine, null otherwise: the one place the
  /// service asks which engine it runs. Mutable for checkpoint
  /// capture/restore (state save/take/restore are non-const).
  RetraSynEngine* retrasyn_ = nullptr;
  std::unique_ptr<IngestSession> session_;
  /// One writer per ingest shard (a single one unsharded); empty =
  /// journaling disabled.
  std::vector<std::unique_ptr<JournalWriter>> journals_;
  std::unique_ptr<CheckpointManager> checkpoint_;  ///< null = disabled

  mutable Mutex sinks_mu_;  ///< AddSink vs. the delivery worker
  std::vector<ReleaseSink*> sinks_ GUARDED_BY(sinks_mu_);

  std::unique_ptr<RoundCloser> closer_;  ///< null under SyncPolicy::kInline
  /// Inline-mode counterpart of the closer's sticky error: a sink failure
  /// after the engine consumed the round (failing that Tick would make a
  /// retry double-observe the batch). Surfaces on the next Tick()/Drain().
  /// Confined to the ingest thread (inline mode runs close + delivery
  /// there), so unguarded by design.
  Status inline_error_;

  // Service-level round timing (null when telemetry is off): the close and
  // delivery phases as the service sees them, on whichever thread runs them
  // (ingest under kInline, the closer/delivery workers under kAsync).
  LatencyHistogram* close_hist_ = nullptr;
  LatencyHistogram* deliver_hist_ = nullptr;
  RoundTrace* trace_ = nullptr;
};

}  // namespace retrasyn

#endif  // RETRASYN_SERVICE_TRAJECTORY_SERVICE_H_
