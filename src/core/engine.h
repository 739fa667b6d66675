// RetraSyn engine: the end-to-end realization of Algorithm 1 of the paper,
// wiring together LDP collection, the global mobility model, the DMU
// mechanism, the adaptive allocation strategies, and the real-time
// synthesizer behind a single streaming interface.
//
// The engine also hosts the paper's ablation variants through configuration:
//   use_dmu = false  ->  AllUpdate  (whole model replaced every round, SV-D)
//   use_eq  = false  ->  NoEQ       (movement-only collection, no
//                                    termination/size adjustment, SV-D)
//
// Privacy accounting:
//  * budget division   — per-timestamp budgets recorded in a BudgetLedger;
//                        any w-window sums to at most epsilon.
//  * population division — every report uses the full epsilon, and the
//                        active/inactive/quitted status discipline with
//                        recycling at t - w guarantees each user reports at
//                        most once per window (audited by a
//                        ReportWindowTracker).

#ifndef RETRASYN_CORE_ENGINE_H_
#define RETRASYN_CORE_ENGINE_H_

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/allocation.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "geo/state_space.h"
#include "journal/journal_options.h"
#include "ldp/aggregate.h"
#include "ldp/budget.h"
#include "stream/cell_stream.h"
#include "stream/feeder.h"
#include "telemetry/telemetry.h"

namespace retrasyn {

enum class DivisionStrategy {
  kBudget,      ///< split epsilon across timestamps (RetraSyn_b)
  kPopulation,  ///< split users across timestamps   (RetraSyn_p)
};

const char* DivisionStrategyName(DivisionStrategy division);

/// \brief Where the heavy round-closing work (collection + model update +
/// synthesis + sink delivery) runs relative to the ingest thread.
enum class SyncPolicy {
  kInline,  ///< Tick() runs the whole round on the calling thread (default)
  kAsync,   ///< Tick() seals + enqueues; a background closer runs the round
};

/// \brief Uniform interface for all stream-release mechanisms (RetraSyn, its
/// ablation variants, and the LDP-IDS baselines), so the evaluation harness
/// and metrics treat them identically.
class StreamReleaseEngine {
 public:
  virtual ~StreamReleaseEngine() = default;

  /// Processes one timestamp of the input stream.
  virtual void Observe(const TimestampBatch& batch) = 0;

  /// Non-destructive snapshot of the evolving synthetic database over horizon
  /// \p num_timestamps (which must cover every timestamp observed so far).
  /// The engine keeps running; consumers may snapshot while the stream is
  /// still open.
  virtual CellStreamSet SnapshotRelease(int64_t num_timestamps) const = 0;

  /// Per-cell density of the live synthetic population — the real-time view
  /// downstream sinks consume after each round. All zeros before the first
  /// synthesis round.
  virtual std::vector<uint32_t> LiveDensity() const = 0;

  virtual std::string name() const = 0;

  /// Registers the engine's metrics in \p telemetry (not owned; null
  /// detaches). Observation-only: attached or not, the released bytes are
  /// identical. Default: engines expose nothing.
  virtual void AttachTelemetry(Telemetry* telemetry) { (void)telemetry; }
};

/// \brief The service-layer knobs: how a TrajectoryService closes rounds,
/// shards ingestion, journals, checkpoints and observes itself. Each is
/// declared here once. RetraSynConfig inherits them, so a RetraSyn
/// deployment sets them on its config; CreateWithEngine/RecoverWithEngine
/// take them alone. What the engine decides (the w-window the session
/// recycles stream indices by, the deployment fingerprint) is not among
/// them. Bare engines ignore them.
struct ServiceOptions {
  /// kAsync moves the round-closing work off the ingest thread onto a
  /// dedicated closer worker per service (the parallel synthesis inside still
  /// uses thread_pool/num_threads). For a fixed seed the release sequence and
  /// snapshots are byte-identical to kInline; only the thread that produces
  /// them changes. Requires TrajectoryService::Drain() before
  /// SnapshotRelease().
  SyncPolicy sync_policy = SyncPolicy::kInline;
  /// Bounded depth of the async round queue (sealed batches waiting for the
  /// closer); >= 1. Tick() blocks while it is full. Ignored under kInline.
  int round_queue_capacity = 8;
  /// Ingest shards: the service's IngestSession partitions users across this
  /// many shards (hash of user id), each owning its slice of validation,
  /// pending-event state, and — when journaling — its own journal segment
  /// stream under journal_dir/shard-NNN. Shards admit events concurrently
  /// (one producer thread per shard scales batch production across cores);
  /// Tick() seals every shard in parallel and merges the sorted shard runs
  /// in parallel too (in user-id ranges on the same pool) into the same
  /// deterministic observation sequence a single shard produces, so the
  /// released bytes are identical for every shard count.
  /// The shard count is part of the deployment fingerprint: a journal
  /// written under N shards only replays under N. In [1, kMaxIngestShards].
  int ingest_shards = 1;
  /// Directory of the durable event journal (write-ahead log of every
  /// accepted Enter/Move/Quit/Tick). Empty disables journaling. Non-empty:
  /// the Create factories require the directory to hold no existing journal
  /// (fresh deployment); the Recover factories replay an existing one and
  /// continue appending. See docs/durability.md.
  std::string journal_dir;
  /// When the journal fsyncs. kEveryRound (default) makes every closed round
  /// crash-durable; kNever trusts the OS; kEveryRecord hardens every event.
  FsyncPolicy journal_fsync = FsyncPolicy::kEveryRound;
  /// Journal segment rotation threshold in bytes
  /// (>= JournalOptions::kMinSegmentBytes).
  int64_t journal_segment_bytes = 64 << 20;
  /// Write a full service checkpoint every N closed rounds (0 = off).
  /// Requires journal_dir, checkpoint_dir and a RetraSynEngine (custom
  /// engines have no serializable state). Recovery then loads the newest
  /// checkpoint and replays only the journal suffix behind it — O(window)
  /// instead of O(horizon) — and compaction retires journal segments older
  /// than the oldest retained checkpoint minus the w-window. Deliberately
  /// NOT part of the deployment fingerprint: the cadence may change across
  /// restarts. See docs/durability.md.
  int64_t checkpoint_every_rounds = 0;
  /// Directory for checkpoint and history spill files.
  std::string checkpoint_dir;
  /// Move closed synthetic streams into history spill files at every
  /// checkpoint, keeping steady-state memory flat over unbounded horizons;
  /// SnapshotRelease reads them back on demand.
  bool checkpoint_spill_history = true;

  /// Upper bound Validate accepts for ingest_shards.
  static constexpr int kMaxIngestShards = 64;

  /// Rejects nonsensical service settings (every TrajectoryService factory
  /// runs it). Defined with the service, which owns these fields' meaning.
  Status Validate() const;
};

/// \brief A RetraSyn deployment: the mechanism parameters below plus the
/// inherited service-layer knobs.
struct RetraSynConfig : ServiceOptions {
  double epsilon = 1.0;
  int window = 20;
  DivisionStrategy division = DivisionStrategy::kPopulation;
  AllocationConfig allocation;
  /// false -> the AllUpdate ablation (no significant-transition selection).
  bool use_dmu = true;
  /// false -> the NoEQ ablation (movement-only model, frozen population).
  bool use_eq = true;
  /// Stream-length reweighting factor of Eq. 8 (the harness sets it to the
  /// dataset's average stream length, per SV-A).
  double lambda = 13.61;
  CollectionMode collection_mode = CollectionMode::kAggregateSim;
  /// Consistency post-processing applied to each round's frequency estimates
  /// (privacy-free by Thm. 2). kClip keeps every state's (non-negative)
  /// estimate, preserving per-cell relative movement structure even for
  /// low-traffic cells — synthesis only consumes per-cell renormalized
  /// distributions, so the spurious global tail mass clipping leaves behind
  /// is largely harmless downstream. kNormSub (the LDPTrace-style consistency
  /// step) yields a far more accurate global frequency vector but zeroes all
  /// outgoing mass of weak cells, freezing their synthetic dynamics; see
  /// bench_ablation for the measured trade-off.
  Postprocess postprocess = Postprocess::kClip;
  uint64_t seed = 1;
  /// Size of the engine's private synthesis pool when thread_pool is null:
  /// 1 = serial (default, no pool); 0 = the hardware concurrency. A
  /// deployment resource only: synthesis chunks by work size
  /// (Synthesizer::EffectiveChunks), so the released bytes are identical for
  /// every value, and the deployment fingerprint does not hash it. Values
  /// above kMaxThreads are rejected by Validate.
  int num_threads = 1;
  /// A pool shared across engines/services (multi-tenant deployments: one
  /// pool, several sessions); when set, num_threads is not used. Like
  /// num_threads it only decides which thread runs which synthesis chunk:
  /// a pool of any size releases the same bytes.
  std::shared_ptr<ThreadPool> thread_pool;

  /// Upper bound Validate accepts for num_threads.
  static constexpr int kMaxThreads = 256;

  /// Rejects nonsensical configurations — the service fields through
  /// ServiceOptions::Validate, then the mechanism — with a descriptive error
  /// instead of crashing the process. The TrajectoryService factories and
  /// the engine constructor both route through this.
  Status Validate() const;
};

/// \brief The complete mutable state of a RetraSynEngine at a round boundary
/// — everything a restored engine needs to continue the byte-identical
/// sequence an uninterrupted run would produce. Purely derived state (the
/// transition-sampler cache, which rebuilds deterministically from the
/// restored model) is deliberately absent.
/// Produced by SaveCheckpointState, persisted by the checkpoint subsystem
/// (src/checkpoint/), consumed by RestoreCheckpointState.
struct EngineCheckpointState {
  // RNG + collection progress.
  std::array<uint64_t, 4> rng_state = {0, 0, 0, 0};
  bool collected_once = false;
  uint64_t total_reports = 0;

  // Global mobility model (stored frequencies are already clamped).
  std::vector<double> model_freq;
  bool model_initialized = false;

  // Synthesizer: the evolving T_syn. `finished` holds only the in-memory
  // remainder — history the checkpoint manager spilled to disk is carried by
  // the checkpoint's manifest, not here. `total_points` counts spilled
  // points too.
  std::vector<CellStream> live;
  std::vector<CellStream> finished;
  uint64_t total_points = 0;
  bool synth_initialized = false;

  // Adaptive-allocation histories (Eq. 9-10).
  int64_t allocator_rounds_recorded = 0;
  std::deque<std::vector<double>> allocator_freq_history;
  std::deque<double> allocator_ratio_history;

  // Budget ledger (budget division; the clock advances under population too).
  std::deque<std::pair<int64_t, double>> ledger_spends;
  double ledger_window_sum = 0.0;
  int64_t ledger_last_t = std::numeric_limits<int64_t>::min();
  double ledger_max_window_spend = 0.0;

  // Report-per-window audit, sorted by user for deterministic bytes.
  std::vector<std::pair<uint64_t, int64_t>> tracker_last_report;
  bool tracker_violation = false;
  int64_t tracker_num_reports = 0;

  // Dense per-user bookkeeping, at its exact current size (the size itself
  // steers future geometric growth, so it is part of the replayed behavior).
  std::vector<uint8_t> status;
  std::vector<int64_t> report_slot;  ///< kRandom only, else empty
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> reported_at;
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> quitted_at;
  uint64_t total_retired = 0;
};

class RetraSynEngine : public StreamReleaseEngine {
 public:
  RetraSynEngine(const StateSpace& states, const RetraSynConfig& config);

  void Observe(const TimestampBatch& batch) override;
  CellStreamSet SnapshotRelease(int64_t num_timestamps) const override;
  std::vector<uint32_t> LiveDensity() const override;
  std::string name() const override;
  /// Rounds/reports counters, the selection histogram and the four
  /// per-component latency histograms of paper Table V
  /// (retrasyn_engine_{user_side,model_construction,dmu,synthesis}_seconds,
  /// one sample per Observe); forwards to the synthesizer (step latency,
  /// points, live streams, sampler-cache rebuilds). Optional: a detached
  /// engine records nothing (null detaches). Every TrajectoryService
  /// attaches its own Telemetry.
  void AttachTelemetry(Telemetry* telemetry) override;

  const RetraSynConfig& config() const { return config_; }
  const GlobalMobilityModel& model() const { return model_; }
  /// Live view of the evolving synthetic database (real-time consumers).
  const Synthesizer& synthesizer() const { return synthesizer_; }
  /// Budget accounting (budget division; records zeros under population
  /// division).
  const BudgetLedger& budget_ledger() const { return ledger_; }
  /// Report-per-window audit (population division).
  const ReportWindowTracker& report_tracker() const { return tracker_; }
  uint64_t total_reports() const { return total_reports_; }
  /// The pool driving the synthesis phase (shared or engine-owned); nullptr
  /// when the engine runs serially.
  const ThreadPool* thread_pool() const { return pool_.get(); }

  /// Total stream indices retired over the engine's lifetime. A stream that
  /// quit at round q retires at the start of the batch for q + window: its
  /// dense slots reset and the index may carry a new stream from that batch
  /// on. Always 0 under budget division, which keeps no per-user state.
  /// Retirement is a deterministic function of the batch sequence alone, so
  /// the released bytes are identical whether the caller re-issues retired
  /// indices (the session of every service over a RetraSynEngine does) or
  /// keeps minting fresh ones (StreamFeeder). Under SyncPolicy::kAsync it is
  /// written on the closer worker; read it only after
  /// TrajectoryService::Drain().
  uint64_t total_retired() const { return total_retired_; }
  /// Current size of the dense per-user bookkeeping — bounded by the index
  /// high-water mark, which recycling keeps at O(peak live + window churn).
  size_t dense_user_slots() const { return status_.size(); }

  // --- Checkpointing (src/checkpoint/) ------------------------------------

  /// Captures the engine's complete mutable state. Call only at a round
  /// boundary (after Observe returns); under SyncPolicy::kAsync that means
  /// on the closer worker, where the service's checkpoint trigger runs.
  EngineCheckpointState SaveCheckpointState() const;

  /// Restores a freshly constructed engine (same StateSpace + config as the
  /// checkpointed one — the checkpoint fingerprint enforces that upstream)
  /// to the captured state. Rejects structurally impossible state with
  /// InvalidArgument instead of corrupting dense bookkeeping.
  Status RestoreCheckpointState(EngineCheckpointState state);

  /// Moves the synthesizer's finished-stream history out (history spill):
  /// the caller becomes responsible for serving those streams in snapshots.
  std::vector<CellStream> TakeFinishedStreams() {
    return synthesizer_.TakeFinished();
  }

 private:
  enum class UserStatus : uint8_t { kUnknown = 0, kActive, kInactive, kQuitted };

  static constexpr int64_t kNoSlot = std::numeric_limits<int64_t>::min();

  /// Grows the dense per-user bookkeeping to cover \p user.
  void EnsureUser(uint32_t user);

  /// Resets the dense slots of indices whose stream quit at or before
  /// t - window (their last possible report has left the w-window), making
  /// them safe for the session to re-issue.
  void RetireQuitted(int64_t t);

  /// Registers arrivals, recycles users whose report left the window, and
  /// returns the indices (into batch.observations) of eligible reporters.
  std::vector<uint32_t> PrepareEligible(const TimestampBatch& batch);

  /// Chooses the reporting subset (population division).
  std::vector<uint32_t> ChooseReporters(const TimestampBatch& batch,
                                        const std::vector<uint32_t>& eligible);

  /// Marks chosen users inactive and quitters quitted after a round.
  void CommitStatuses(const TimestampBatch& batch,
                      const std::vector<uint32_t>& chosen);

  bool ObservationEligible(const UserObservation& obs) const;

  const StateSpace* states_;
  RetraSynConfig config_;
  Rng rng_;
  TransitionCollector collector_;
  GlobalMobilityModel model_;
  Synthesizer synthesizer_;
  std::shared_ptr<ThreadPool> pool_;  ///< shared via config or engine-owned
  PortionAllocator allocator_;
  BudgetLedger ledger_;
  ReportWindowTracker tracker_;
  bool collected_once_ = false;

  // Population-division bookkeeping, dense over the contiguous user indices
  // the service layer / feeder assign (no per-observation hashing).
  std::vector<UserStatus> status_;
  std::vector<int64_t> report_slot_;  ///< kRandom only; kNoSlot = unscheduled
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> reported_at_;
  /// Indices whose stream quit, bucketed by quit round; a bucket retires
  /// once its round leaves the w-window. An index sits in at most one bucket:
  /// it can only quit again after being re-issued, which happens strictly
  /// after its previous bucket retired.
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> quitted_at_;
  uint64_t total_retired_ = 0;

  uint64_t total_reports_ = 0;

  // Telemetry (all null when detached; the Observe hot path pays one null
  // check per timed phase).
  Counter* rounds_metric_ = nullptr;
  Counter* reports_metric_ = nullptr;
  LatencyHistogram* select_hist_ = nullptr;
  LatencyHistogram* user_side_hist_ = nullptr;
  LatencyHistogram* model_hist_ = nullptr;
  LatencyHistogram* dmu_hist_ = nullptr;
  LatencyHistogram* synthesis_hist_ = nullptr;
};

}  // namespace retrasyn

#endif  // RETRASYN_CORE_ENGINE_H_
