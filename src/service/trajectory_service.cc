#include "service/trajectory_service.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/file_io.h"
#include "common/stopwatch.h"

namespace retrasyn {

namespace {

/// The physical journal directories for \p options: the configured dir
/// itself for a single shard, one shard-NNN subdirectory per shard
/// otherwise. Empty when journaling is disabled.
std::vector<std::string> JournalDirsFor(const ServiceOptions& options) {
  std::vector<std::string> dirs;
  if (options.journal_dir.empty()) return dirs;
  if (options.ingest_shards == 1) {
    dirs.push_back(options.journal_dir);
    return dirs;
  }
  dirs.reserve(static_cast<size_t>(options.ingest_shards));
  for (int s = 0; s < options.ingest_shards; ++s) {
    dirs.push_back(options.journal_dir + "/" + ShardJournalDirName(s));
  }
  return dirs;
}

/// Reads the journal root of \p options in one listing, before a single file
/// is created, locked, truncated or deleted, and returns which of the
/// journal directories of JournalDirsFor already exist. A \p fresh
/// deployment refuses any journal there, flat or sharded: Create must not
/// append to a journal it did not replay. Recovery refuses a layout that
/// contradicts the configured shard count — an unsharded journal under
/// ingest_shards > 1, shard subdirectories under ingest_shards == 1, or a
/// shard subdirectory beyond the configured count. A wrong-layout scan would
/// find zero segments and silently recover an empty service; this fails
/// loudly instead (the fingerprint also records the shard count, but it
/// cannot protect a scan that never reads a segment header).
Result<std::vector<bool>> ReadJournalRoot(const ServiceOptions& options,
                                          bool fresh) {
  const std::string& root = options.journal_dir;
  const int ingest_shards = options.ingest_shards;
  std::vector<bool> existed(JournalDirsFor(options).size(), false);
  if (root.empty()) return existed;
  std::vector<std::string> files;
  std::vector<std::string> subdirs;
  const Status listed = ListDirectoryEntries(root, &files, &subdirs);
  if (listed.code() == StatusCode::kNotFound) return existed;
  RETRASYN_RETURN_NOT_OK(listed);
  auto already_holds = [&root](const std::string& name) {
    return Status::FailedPrecondition(
        "journal dir " + root + " already holds a journal (" + name +
        "); use TrajectoryService::Recover to resume it");
  };
  for (const std::string& name : files) {
    uint64_t segment = 0;
    if (!JournalWriter::ParseSegmentFileName(name, &segment)) continue;
    if (fresh) return already_holds(name);
    if (ingest_shards > 1) {
      return Status::FailedPrecondition(
          "journal dir " + root + " holds an unsharded journal (" + name +
          ") but the service is configured with ingest_shards = " +
          std::to_string(ingest_shards) +
          "; recover under the shard count that wrote it");
    }
  }
  if (ingest_shards == 1) existed[0] = true;  // the root is the journal
  for (const std::string& name : subdirs) {
    int shard = 0;
    if (!ParseShardJournalDirName(name, &shard)) continue;
    if (fresh) return already_holds(name);
    if (ingest_shards == 1) {
      return Status::FailedPrecondition(
          "journal dir " + root + " holds a sharded journal (" + name +
          ") but the service is configured unsharded (ingest_shards = 1); "
          "recover under the shard count that wrote it");
    }
    if (shard >= ingest_shards) {
      return Status::FailedPrecondition(
          "journal dir " + root + " holds " + name +
          " but the service is configured with only ingest_shards = " +
          std::to_string(ingest_shards) +
          "; recover under the shard count that wrote it");
    }
    existed[static_cast<size_t>(shard)] = true;
  }
  return existed;
}

/// The journal writers' options: the fsync policy, the checkpoint cadence
/// their segments end at, and the deployment fingerprint every segment
/// header carries.
JournalOptions JournalOptionsFor(const ServiceOptions& options,
                                 uint64_t fingerprint) {
  JournalOptions journal;
  journal.fsync = options.journal_fsync;
  journal.checkpoint_every_rounds = options.checkpoint_every_rounds;
  journal.fingerprint = fingerprint;
  return journal;
}

/// The checkpoint subsystem's options from the service's: the same
/// fingerprint the journal stamps, retirement window = \p window (the
/// engine's w-event window; 0 for a custom engine). The cadence is
/// deliberately NOT fingerprinted — it may change across restarts without
/// invalidating durable state.
CheckpointOptions CheckpointOptionsFor(const ServiceOptions& options,
                                       int window, uint64_t fingerprint,
                                       std::string grid_describe) {
  CheckpointOptions checkpoint;
  checkpoint.dir = options.checkpoint_dir;
  checkpoint.every_rounds = options.checkpoint_every_rounds;
  checkpoint.spill_history = options.checkpoint_spill_history;
  checkpoint.fingerprint = fingerprint;
  checkpoint.grid_describe = std::move(grid_describe);
  checkpoint.window = window;
  checkpoint.journal_dirs = JournalDirsFor(options);
  return checkpoint;
}

/// Checkpointing serializes the engine's dense state, which only a
/// RetraSynEngine can do (\p retrasyn null: any other engine); a custom
/// engine must keep the full-replay model.
Status CheckCheckpointable(const ServiceOptions& options,
                           const RetraSynEngine* retrasyn) {
  if (options.checkpoint_every_rounds > 0 && retrasyn == nullptr) {
    return Status::InvalidArgument(
        "checkpointing requires a RetraSynEngine (custom engines have no "
        "serializable checkpoint state); leave checkpoint_every_rounds at 0");
  }
  return Status::OK();
}

}  // namespace

TrajectoryService::TrajectoryService(
    const StateSpace& states, std::unique_ptr<StreamReleaseEngine> engine,
    const ServiceOptions& options)
    : states_(&states),
      engine_(std::move(engine)),
      retrasyn_(dynamic_cast<RetraSynEngine*>(engine_.get())) {
  MetricsRegistry& registry = telemetry_.registry();
  close_hist_ = registry.GetHistogram(
      "retrasyn_service_close_seconds",
      "Round close step (engine Observe + release construction)");
  deliver_hist_ = registry.GetHistogram(
      "retrasyn_service_delivery_seconds",
      "Sink fan-out for one round's release");
  engine_->AttachTelemetry(&telemetry_);
  IngestSessionOptions session_options;
  session_options.window = window();
  session_options.num_shards = options.ingest_shards;
  session_ = std::make_unique<IngestSession>(
      states, [this](TimestampBatch batch) { return OnRound(std::move(batch)); },
      telemetry_, session_options);
  if (options.checkpoint_every_rounds > 0) {
    // The session half of a due checkpoint, captured on the ingest thread the
    // moment the round boundary is durable in the journal (the hook only
    // fires for journaled boundaries). checkpoint_ attaches after
    // construction — and stays null throughout recovery replay, so replay
    // never rewrites checkpoints — hence the re-check at fire time.
    session_->SetRoundCommitHook([this](int64_t sealed_round) {
      if (checkpoint_ != nullptr && checkpoint_->DueAt(sealed_round)) {
        checkpoint_->OnRoundCommitted(sealed_round,
                                      session_->SaveCheckpointState());
      }
    });
  }
}

uint64_t TrajectoryService::DeploymentFingerprint() const {
  // The grid's canonical description covers backend kind, bounding box, and
  // the full structural parameters (for the quadtree, every split), so a
  // journal can never be replayed under a different discretization — not
  // even one with an identical cell count. The fields are serialized as
  // fixed64 (doubles as their bits) and hashed once with Fnv1a64, so the
  // value does not depend on host byte order.
  std::string bytes = states_->grid().Describe();
  PutFixed64(states_->size(), &bytes);
  if (retrasyn_ == nullptr) {
    // Any other engine binds its self-reported identity.
    bytes.append(engine_->name());
  } else {
    // Every engine-config field that steers collection/synthesis: replay
    // under a changed one would still *accept* most events, just resolve
    // them differently. tools/lint.py checks that every field declared in
    // RetraSynConfig and AllocationConfig appears here (or carries an
    // allowlisted reason).
    const RetraSynConfig& config = retrasyn_->config();
    PutDouble(config.epsilon, &bytes);
    PutFixed64(static_cast<uint64_t>(config.window), &bytes);
    PutFixed64(static_cast<uint64_t>(config.division), &bytes);
    PutFixed64(static_cast<uint64_t>(config.allocation.kind), &bytes);
    PutDouble(config.allocation.alpha, &bytes);
    PutFixed64(static_cast<uint64_t>(config.allocation.kappa), &bytes);
    PutDouble(config.allocation.max_portion, &bytes);
    PutDouble(config.allocation.min_portion, &bytes);
    PutFixed64(config.use_dmu ? 1 : 0, &bytes);
    PutFixed64(config.use_eq ? 1 : 0, &bytes);
    PutDouble(config.lambda, &bytes);
    PutFixed64(static_cast<uint64_t>(config.collection_mode), &bytes);
    // OUE's code from when the oracle was a setting: old fingerprints hold.
    PutFixed64(0, &bytes);
    PutFixed64(static_cast<uint64_t>(config.postprocess), &bytes);
    PutFixed64(config.seed, &bytes);
  }
  // The shard count fixes the journal layout (which shard stream holds
  // which user's events); replay under a different count would read the
  // wrong streams, so it is refused by fingerprint.
  PutFixed64(static_cast<uint64_t>(session_->num_shards()), &bytes);
  return Fnv1a64(bytes);
}

void TrajectoryService::ArmCloser(const ServiceOptions& options) {
  RoundCloser::Options closer_options;
  closer_options.queue_capacity =
      static_cast<size_t>(options.round_queue_capacity);
  closer_options.recycle = [this](TimestampBatch&& batch) {
    session_->RecycleBatch(std::move(batch));
  };
  closer_ = std::make_unique<RoundCloser>(
      closer_options, telemetry_,
      [this](const TimestampBatch& batch) { return CloseRound(batch); },
      [this](const RoundRelease& round) { return Deliver(round); });
}

TrajectoryService::~TrajectoryService() {
  // Stop the async workers before the engine and session they close over;
  // the closer first (it hands the checkpoint manager engine halves), then
  // the checkpoint worker (it drains sealed segments from the journal).
  closer_.reset();
  checkpoint_.reset();
}

Status ServiceOptions::Validate() const {
  if (round_queue_capacity < 1) {
    return Status::InvalidArgument(
        "round_queue_capacity must be >= 1 sealed batch, got " +
        std::to_string(round_queue_capacity));
  }
  if (ingest_shards < 1 || ingest_shards > kMaxIngestShards) {
    return Status::InvalidArgument(
        "ingest_shards must be in [1, " +
        std::to_string(kMaxIngestShards) + "], got " +
        std::to_string(ingest_shards));
  }
  if (!journal_dir.empty()) {
    RETRASYN_RETURN_NOT_OK(JournalOptionsFor(*this, 0).Validate());
  }
  if (checkpoint_every_rounds < 0) {
    return Status::InvalidArgument(
        "checkpoint_every_rounds must be >= 0 (0 disables checkpointing), "
        "got " +
        std::to_string(checkpoint_every_rounds));
  }
  if (checkpoint_every_rounds > 0) {
    if (journal_dir.empty()) {
      return Status::InvalidArgument(
          "checkpointing requires a journal (journal_dir): a checkpoint only "
          "bridges recovery to the journal suffix behind it");
    }
    RETRASYN_RETURN_NOT_OK(CheckpointOptionsFor(*this, 0, 0, "").Validate());
  }
  return Status::OK();
}

Result<std::unique_ptr<TrajectoryService>> TrajectoryService::Create(
    const StateSpace& states, const RetraSynConfig& config) {
  RETRASYN_RETURN_NOT_OK(config.Validate());
  return CreateWithEngine(
      states, std::make_unique<RetraSynEngine>(states, config), config);
}

Result<std::unique_ptr<TrajectoryService>> TrajectoryService::CreateWithEngine(
    const StateSpace& states, std::unique_ptr<StreamReleaseEngine> engine,
    const ServiceOptions& options) {
  return Open(states, std::move(engine), options, /*fresh=*/true);
}

Result<std::unique_ptr<TrajectoryService>> TrajectoryService::Recover(
    const StateSpace& states, const RetraSynConfig& config) {
  RETRASYN_RETURN_NOT_OK(config.Validate());
  return RecoverWithEngine(
      states, std::make_unique<RetraSynEngine>(states, config), config);
}

Result<std::unique_ptr<TrajectoryService>> TrajectoryService::RecoverWithEngine(
    const StateSpace& states, std::unique_ptr<StreamReleaseEngine> engine,
    const ServiceOptions& options) {
  return Open(states, std::move(engine), options, /*fresh=*/false);
}

Result<std::unique_ptr<TrajectoryService>> TrajectoryService::Open(
    const StateSpace& states, std::unique_ptr<StreamReleaseEngine> engine,
    const ServiceOptions& options, bool fresh) {
  if (engine == nullptr) {
    return Status::InvalidArgument("engine must not be null");
  }
  if (!fresh && options.journal_dir.empty()) {
    return Status::InvalidArgument("Recover requires a journal_dir");
  }
  RETRASYN_RETURN_NOT_OK(options.Validate());
  // The service is built here but stays un-journaled, un-checkpointed and
  // (under kAsync) without its closer until the replay below is done:
  // replayed events are not re-journaled and replay never rewrites
  // checkpoints.
  std::unique_ptr<TrajectoryService> service(
      new TrajectoryService(states, std::move(engine), options));
  RETRASYN_RETURN_NOT_OK(CheckCheckpointable(options, service->retrasyn_));
  const uint64_t fingerprint = service->DeploymentFingerprint();

  // Boot and recovery are one path: a fresh deployment is the recovery of
  // directories that hold nothing, and `fresh` only adds the refusals
  // below, each of which runs before any file is truncated or deleted.
  // First the journal root, read before anything is created or locked: a
  // layout that contradicts the configured shard count is refused, and so
  // is any journal under a fresh deployment.
  auto root = ReadJournalRoot(options, fresh);
  if (!root.ok()) return root.status();
  const std::vector<bool> existed = std::move(root).value();
  const std::vector<std::string> dirs = JournalDirsFor(options);

  // Take every existing shard's writer lock BEFORE the destructive
  // scans/truncates: if the crashed process is in fact still alive and
  // appending (a supervisor restart race), reading its segments mid-write
  // would misdiagnose a torn tail and truncate away durably acknowledged
  // records. Directories that do not exist yet are NOT created here — a
  // refused Recover or Create (wrong fingerprint, wrong layout, existing
  // state) must leave the directory tree as it found it.
  std::vector<FileLock> locks(dirs.size());
  for (size_t s = 0; s < dirs.size(); ++s) {
    if (!existed[s]) continue;
    auto lock = FileLock::Acquire(dirs[s] + "/" + JournalWriter::kLockFileName);
    if (!lock.ok()) return lock.status();
    locks[s] = std::move(lock).value();
  }

  // The checkpoint directory, listed under the journal locks (they cover it
  // too) and before anything in it or in the journal is deleted: a fresh
  // deployment must never silently shadow recoverable state.
  CheckpointManager::DirContents checkpoint_files;
  if (options.checkpoint_every_rounds > 0) {
    auto listed = CheckpointManager::ListDir(options.checkpoint_dir);
    if (!listed.ok()) return listed.status();
    checkpoint_files = std::move(listed).value();
    if (fresh && (!checkpoint_files.checkpoints.empty() ||
                  !checkpoint_files.histories.empty())) {
      return Status::FailedPrecondition(
          "checkpoint directory " + options.checkpoint_dir +
          " already holds checkpoints; Recover the existing deployment or "
          "point the new one elsewhere");
    }
  }

  std::vector<JournalScan> scans(dirs.size());
  for (size_t s = 0; s < dirs.size(); ++s) {
    if (!existed[s]) continue;
    auto scan_result = JournalReader::ScanDir(dirs[s]);
    if (!scan_result.ok()) return scan_result.status();
    JournalScan scan = std::move(scan_result).value();
    if (scan.has_fingerprint && scan.fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          "journal in " + dirs[s] +
          " was written by a different deployment (state space / engine "
          "config / shard count changed); replaying it here would silently "
          "diverge");
    }
    if (scan.torn) {
      // Cut the torn tail physically so the on-disk journal is clean before
      // a single new byte is appended after it.
      RETRASYN_RETURN_NOT_OK(
          TruncateFile(scan.torn_segment, scan.valid_tail_size));
    }
    scans[s] = std::move(scan);
  }

  // Rounds durable in one scanned shard journal.
  auto closed_rounds = [](const JournalScan& scan) {
    int64_t round = scan.base_round;
    for (const JournalEvent& e : scan.events) {
      if (e.type == JournalEventType::kTick) ++round;
    }
    return round;
  };

  // Durable rounds for the deployment = the minimum across shards: a round
  // only counts once its boundary reached every shard's journal. A shard
  // can be at most one boundary ahead — a crash or I/O failure between the
  // per-shard boundary appends, after which the session refuses every
  // event — so the orphaned trailing boundary is dropped physically (and
  // the header-only segment a rotation may have opened right after it),
  // restoring the all-journals-agree invariant before the new writers
  // append a byte. Anything else is real inter-journal corruption.
  int64_t min_closed = scans.empty() ? 0 : closed_rounds(scans.front());
  for (const JournalScan& scan : scans) {
    min_closed = std::min(min_closed, closed_rounds(scan));
  }
  for (size_t s = 0; s < scans.size(); ++s) {
    int drops = 0;
    while (closed_rounds(scans[s]) > min_closed) {
      if (++drops > 1 || scans[s].events.empty() ||
          scans[s].events.back().type != JournalEventType::kTick) {
        return Status::IOError(
            "journal in " + dirs[s] + " closed " +
            std::to_string(closed_rounds(scans[s]) - min_closed) +
            " round(s) its sibling shards never did; the shard journals are "
            "inconsistent beyond the single-boundary skew a crash can cause");
      }
      const std::string& segment_path = scans[s].last_record_segment;
      const std::string segment_name =
          segment_path.substr(segment_path.find_last_of('/') + 1);
      uint64_t boundary_segment = 0;
      if (!JournalWriter::ParseSegmentFileName(segment_name,
                                               &boundary_segment)) {
        return Status::Internal("unparseable journal segment path " +
                                segment_path);
      }
      bool removed = false;
      for (const ScannedSegment& segment : scans[s].segments) {
        if (segment.index > boundary_segment) {
          RETRASYN_RETURN_NOT_OK(RemoveFile(
              dirs[s] + "/" + JournalWriter::SegmentFileName(segment.index)));
          removed = true;
        }
      }
      if (removed) RETRASYN_RETURN_NOT_OK(SyncDir(dirs[s]));
      RETRASYN_RETURN_NOT_OK(
          TruncateFile(segment_path, scans[s].last_record_offset));
      auto rescan = JournalReader::ScanDir(dirs[s]);
      if (!rescan.ok()) return rescan.status();
      scans[s] = std::move(rescan).value();
    }
  }

  // Load the newest usable checkpoint (checkpointing configured only). A
  // structurally valid checkpoint under the wrong fingerprint fails loudly
  // here — never a silent fall-through to full replay.
  CheckpointState ckpt;
  bool have_checkpoint = false;
  std::vector<int64_t> surviving;
  int corrupt_skipped = 0;
  if (options.checkpoint_every_rounds > 0) {
    auto loaded = CheckpointManager::LoadForRecovery(
        options.checkpoint_dir, std::move(checkpoint_files), fingerprint,
        &surviving, &corrupt_skipped);
    if (loaded.ok()) {
      ckpt = std::move(loaded).value();
      // The fingerprint gate above already hashes the grid description;
      // comparing the round-tripped bytes verbatim keeps recovery honest
      // even against a (hypothetical) hash collision and gives the refusal
      // a precise message.
      if (ckpt.grid_describe != states.grid().Describe()) {
        return Status::FailedPrecondition(
            "checkpoint in " + options.checkpoint_dir +
            " was captured under a different spatial grid than the running "
            "deployment (" + states.grid().ToString() +
            "); recovery under a changed discretization is refused");
      }
      have_checkpoint = true;
    } else if (loaded.status().code() != StatusCode::kNotFound) {
      return loaded.status();
    }
  }
  int64_t max_base = 0;
  for (const JournalScan& scan : scans) {
    max_base = std::max(max_base, scan.base_round);
  }
  if (!have_checkpoint && max_base > 0) {
    return Status::IOError(
        "journal in " + options.journal_dir + " was compacted past round " +
        std::to_string(max_base) +
        " but no usable checkpoint covers the retired prefix (checkpoint "
        "directory missing, wiped, or checkpointing disabled); the service "
        "cannot be reconstructed");
  }
  if (have_checkpoint && ckpt.round < max_base) {
    return Status::IOError(
        "newest usable checkpoint (round " + std::to_string(ckpt.round) +
        ") predates the journal's compaction base (round " +
        std::to_string(max_base) +
        "); the rounds between them are unrecoverable");
  }

  // Replay inline: with a checkpoint, restore its state first and replay
  // only the journal suffix behind its round.
  int64_t resume_round = max_base;
  if (have_checkpoint) {
    resume_round = ckpt.round;
    RETRASYN_RETURN_NOT_OK(
        service->retrasyn_->RestoreCheckpointState(std::move(ckpt.engine)));
    RETRASYN_RETURN_NOT_OK(
        service->session_->RestoreCheckpointState(std::move(ckpt.session)));
  }
  RETRASYN_RETURN_NOT_OK(
      service->ReplayJournals(scans, resume_round, min_closed));

  // Open the journal writers, which adopt the held locks and continue in
  // fresh segments numbered after the scanned ones (their round accounting
  // continues from the replayed total).
  if (!options.journal_dir.empty()) {
    RETRASYN_RETURN_NOT_OK(CreateDirIfMissing(options.journal_dir));
  }
  const JournalOptions journal_options =
      JournalOptionsFor(options, fingerprint);
  std::vector<JournalWriter*> journals;
  for (size_t s = 0; s < dirs.size(); ++s) {
    if (!existed[s]) {
      // Deferred until every validation passed: a refused Recover must not
      // scatter fresh shard directories under the journal root.
      RETRASYN_RETURN_NOT_OK(CreateDirIfMissing(dirs[s]));
      auto lock =
          FileLock::Acquire(dirs[s] + "/" + JournalWriter::kLockFileName);
      if (!lock.ok()) return lock.status();
      locks[s] = std::move(lock).value();
    }
    const std::vector<ScannedSegment>& scanned = scans[s].segments;
    auto writer = JournalWriter::OpenLocked(
        dirs[s], journal_options, std::move(locks[s]),
        scanned.empty() ? 0 : scanned.back().index + 1, service->telemetry_);
    if (!writer.ok()) return writer.status();
    writer.value()->set_base_round(service->rounds_closed());
    journals.push_back(writer.value().get());
    service->journals_.push_back(std::move(writer).value());
  }
  service->session_->AttachJournals(journals);
  // The recovery fallback-ladder depth: how many corrupt checkpoints
  // LoadForRecovery deleted before finding a usable one (0 on a clean
  // recovery, on a fresh boot, or when checkpointing is off).
  service->telemetry_.registry()
      .GetGauge("retrasyn_recovery_corrupt_checkpoints_skipped",
                "Corrupt checkpoints deleted by the last recovery's "
                "newest-first fallback ladder")
      ->Set(corrupt_skipped);

  // Then the checkpoint subsystem, seeded with the restored checkpoint's
  // spill manifest, the surviving checkpoints, and the scanned segments
  // (its future retirement candidates, per shard journal).
  if (options.checkpoint_every_rounds > 0) {
    auto manager = CheckpointManager::Open(
        CheckpointOptionsFor(options, service->window(), fingerprint,
                             states.grid().Describe()),
        journals, scans, std::move(ckpt.spill_rounds), std::move(surviving),
        service->telemetry_);
    if (!manager.ok()) return manager.status();
    service->checkpoint_ = std::move(manager).value();
  }
  // Finally async closing per the config.
  if (options.sync_policy == SyncPolicy::kAsync) service->ArmCloser(options);
  return service;
}

Status TrajectoryService::ReplayJournals(const std::vector<JournalScan>& scans,
                                         int64_t resume_round,
                                         int64_t target_round) {
  // Bucket each shard's events by the round they belong to, numbering from
  // that journal's own base round (per-shard BASE files may differ: a crash
  // can fall between two shards' compactions). A kTick boundary closes one
  // bucket. The final bucket holds the open round's trailing events.
  struct ShardBuckets {
    int64_t base = 0;
    std::vector<std::vector<const JournalEvent*>> rounds;
  };
  std::vector<ShardBuckets> shards(scans.size());
  for (size_t s = 0; s < scans.size(); ++s) {
    ShardBuckets& shard = shards[s];
    shard.base = scans[s].base_round;
    shard.rounds.emplace_back();
    for (const JournalEvent& e : scans[s].events) {
      if (e.type == JournalEventType::kTick) {
        shard.rounds.emplace_back();
      } else {
        shard.rounds.back().push_back(&e);
      }
    }
  }

  auto feed = [this](const JournalEvent& e) -> Status {
    Status st;
    switch (e.type) {
      case JournalEventType::kEnter:
        st = session_->Enter(e.user, e.location);
        break;
      case JournalEventType::kMove:
        st = session_->Move(e.user, e.location);
        break;
      case JournalEventType::kQuit:
        st = session_->Quit(e.user);
        break;
      default:
        st = Status::Internal("round boundary inside a replay bucket");
        break;
    }
    if (!st.ok()) {
      // The journal only ever holds events the session accepted, so a
      // rejection means the journal does not match this config/state space.
      return Status::Internal("journal replay rejected a " +
                              std::string(JournalEventTypeName(e.type)) +
                              " record: " + st.message());
    }
    return st;
  };

  // Closed rounds in lockstep across shards. Rounds before resume_round are
  // skipped — a restored checkpoint already holds their effect. Users are
  // disjoint across shards and arrival order within a round never affects
  // the sealed batch, so feeding whole shard buckets in shard order
  // reproduces the exact batches the original merge sealed.
  target_round = std::max(target_round, resume_round);
  for (int64_t r = resume_round; r < target_round; ++r) {
    for (const ShardBuckets& shard : shards) {
      const int64_t i = r - shard.base;
      if (i < 0 || i >= static_cast<int64_t>(shard.rounds.size())) continue;
      for (const JournalEvent* e : shard.rounds[static_cast<size_t>(i)]) {
        RETRASYN_RETURN_NOT_OK(feed(*e));
      }
    }
    Status ticked = session_->Tick();
    if (!ticked.ok()) {
      return Status::Internal("journal replay could not close round " +
                              std::to_string(r) + ": " + ticked.message());
    }
  }
  // Trailing events: rounds at/after target_round never closed durably on
  // every shard, so their events re-buffer into the reopened round.
  for (const ShardBuckets& shard : shards) {
    for (int64_t i = target_round - shard.base;
         i < static_cast<int64_t>(shard.rounds.size()); ++i) {
      if (i < 0) continue;
      for (const JournalEvent* e : shard.rounds[static_cast<size_t>(i)]) {
        RETRASYN_RETURN_NOT_OK(feed(*e));
      }
    }
  }
  return Status::OK();
}

void TrajectoryService::AddSink(ReleaseSink* sink) {
  if (sink == nullptr) return;
  MutexLock l(sinks_mu_);
  sinks_.push_back(sink);
}

Status TrajectoryService::OnRound(TimestampBatch batch) {
  // A poisoned checkpoint subsystem fails the Tick cleanly BEFORE the round
  // is consumed: the session rolls back, the journal is untouched, and the
  // journal always outruns the checkpoints — Recover loses nothing.
  if (checkpoint_ != nullptr) RETRASYN_RETURN_NOT_OK(checkpoint_->status());
  if (closer_ != nullptr) return closer_->Submit(std::move(batch));
  // Surface a previous sink failure before consuming another round, mirroring
  // the async pipeline's poisoned state.
  RETRASYN_RETURN_NOT_OK(inline_error_);
  Result<RoundRelease> release = CloseRound(batch);
  // The engine copied what it needs; the observation buffer goes back to the
  // session's pool either way (a failed close re-seals from pending state).
  session_->RecycleBatch(std::move(batch));
  if (!release.ok()) return release.status();
  if (release.value().density.empty()) return Status::OK();  // no sinks
  // The engine has consumed the round; a sink failure past this point must
  // NOT fail this Tick() (the session would roll back and a retry would
  // double-observe the batch). Record it sticky instead: it surfaces on the
  // next Tick()/Drain()/SnapshotRelease, exactly like an async failure.
  Status delivered = Deliver(release.value());
  if (!delivered.ok()) {
    inline_error_ = delivered;
    telemetry_.RecordFailure("inline_delivery", delivered, release.value().t);
  }
  return Status::OK();
}

Result<RoundRelease> TrajectoryService::CloseRound(const TimestampBatch& batch) {
  Stopwatch close_watch;
  engine_->Observe(batch);
  RoundRelease round;
  round.t = batch.t;
  if (checkpoint_ != nullptr && checkpoint_->DueAt(batch.t)) {
    // Engine half of the due checkpoint, captured right after Observe on the
    // round-closing thread. Spilling first keeps the dense state and the
    // spill manifest disjoint: the checkpoint's finished set excludes every
    // stream the spill registry now owns.
    std::vector<CellStream> spilled;
    if (checkpoint_->options().spill_history) {
      spilled = retrasyn_->TakeFinishedStreams();
    }
    checkpoint_->OnRoundClosed(batch.t,
                               retrasyn_->SaveCheckpointState(),
                               std::move(spilled));
  }
  bool have_sinks;
  {
    MutexLock l(sinks_mu_);
    have_sinks = !sinks_.empty();
  }
  // With no sink subscribed at close time there is nobody to consume the
  // release; the empty density is the skip-delivery sentinel (a real grid
  // always has >= 1 cell). A sink added later starts with the next round
  // closed after the subscription.
  if (have_sinks) {
    round.density = engine_->LiveDensity();
    for (uint32_t c : round.density) round.active += c;
  }
  const double close_seconds = close_watch.ElapsedSeconds();
  close_hist_->Record(close_seconds);
  telemetry_.trace().RecordPhase(batch.t, RoundPhase::kClose, close_seconds);
  return round;
}

Status TrajectoryService::Deliver(const RoundRelease& round) {
  std::vector<ReleaseSink*> sinks;
  {
    MutexLock l(sinks_mu_);
    sinks = sinks_;
  }
  Stopwatch deliver_watch;
  for (ReleaseSink* sink : sinks) {
    RETRASYN_RETURN_NOT_OK(sink->OnRound(round));
  }
  const double deliver_seconds = deliver_watch.ElapsedSeconds();
  deliver_hist_->Record(deliver_seconds);
  telemetry_.trace().RecordPhase(round.t, RoundPhase::kDeliver,
                                 deliver_seconds);
  return Status::OK();
}

Status TrajectoryService::Drain() {
  RETRASYN_RETURN_NOT_OK(closer_ == nullptr ? inline_error_
                                            : closer_->Drain());
  // Checkpoint barrier: every captured round durable (or the sticky failure
  // surfaced) before Drain reports clean.
  if (checkpoint_ != nullptr) return checkpoint_->WaitIdle();
  return Status::OK();
}

Result<CellStreamSet> TrajectoryService::SnapshotRelease() const {
  return SnapshotRelease(rounds_closed());
}

Result<CellStreamSet> TrajectoryService::SnapshotRelease(
    int64_t num_timestamps) const {
  if (rounds_closed() < 1) {
    return Status::FailedPrecondition(
        "no rounds closed yet; Tick() the session before snapshotting");
  }
  if (num_timestamps < rounds_closed()) {
    return Status::InvalidArgument(
        "snapshot horizon " + std::to_string(num_timestamps) +
        " does not cover the " + std::to_string(rounds_closed()) +
        " closed rounds");
  }
  if (closer_ == nullptr) {
    RETRASYN_RETURN_NOT_OK(inline_error_);
  } else {
    // Order matters: once in_flight() reads 0 (and this thread is the only
    // submitter), every round has fully settled, so a failure among them is
    // already recorded by the time deferred_error() is read. The reverse
    // order would let a failure land between the two reads and hand out an
    // OK snapshot over an engine that silently dropped rounds.
    const size_t in_flight = closer_->in_flight();
    if (in_flight > 0) {
      return Status::FailedPrecondition(
          "async round closing is still in flight (" +
          std::to_string(in_flight) +
          " rounds); Drain() the service before snapshotting");
    }
    RETRASYN_RETURN_NOT_OK(closer_->deferred_error());
  }
  if (checkpoint_ != nullptr && checkpoint_->has_spilled_history()) {
    // Spilled history first (ascending checkpoint round, original order
    // within), then the engine's remaining finished + live streams: the
    // concatenation reproduces the no-spill snapshot byte-for-byte.
    CellStreamSet merged(num_timestamps);
    RETRASYN_RETURN_NOT_OK(checkpoint_->AppendSpilledHistory(&merged));
    const CellStreamSet rest = engine_->SnapshotRelease(num_timestamps);
    for (const CellStream& s : rest.streams()) {
      RETRASYN_RETURN_NOT_OK(merged.Add(s));
    }
    return merged;
  }
  return engine_->SnapshotRelease(num_timestamps);
}

}  // namespace retrasyn
