#include "checkpoint/checkpoint_manager.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/file_io.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "journal/journal_compaction.h"

namespace retrasyn {

namespace {

/// Lists \p dir, deletes orphaned tmp files, and splits the rest into
/// checkpoint and history rounds (ascending). A missing directory yields
/// empty lists.
Status ScanCheckpointDir(const std::string& dir,
                         std::vector<int64_t>* checkpoints,
                         std::vector<int64_t>* histories) {
  auto names = ListDirectory(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) return Status::OK();
    return names.status();
  }
  bool cleaned = false;
  for (const std::string& name : names.value()) {
    if (IsTempFileName(name)) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
      cleaned = true;
      continue;
    }
    int64_t round = 0;
    if (ParseCheckpointFileName(name, &round)) {
      checkpoints->push_back(round);
    } else if (ParseHistoryFileName(name, &round)) {
      histories->push_back(round);
    }
  }
  if (cleaned) RETRASYN_RETURN_NOT_OK(SyncDir(dir));
  std::sort(checkpoints->begin(), checkpoints->end());
  std::sort(histories->begin(), histories->end());
  return Status::OK();
}

}  // namespace

Status CheckpointOptions::Validate() const {
  if (every_rounds < 0) {
    return Status::InvalidArgument("checkpoint every_rounds must be >= 0");
  }
  if (every_rounds == 0) return Status::OK();
  if (dir.empty()) {
    return Status::InvalidArgument(
        "checkpointing requires a checkpoint directory");
  }
  if (retain < 1) {
    return Status::InvalidArgument(
        "checkpoint retention must keep at least one checkpoint");
  }
  if (window < 0) {
    return Status::InvalidArgument("checkpoint window must be >= 0");
  }
  return Status::OK();
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {
  journals_.resize(options_.journal_dirs.size());
  for (size_t i = 0; i < journals_.size(); ++i) {
    journals_[i].dir = options_.journal_dirs[i];
  }
}

Result<std::unique_ptr<CheckpointManager>> CheckpointManager::Open(
    const CheckpointOptions& options, bool require_fresh) {
  RETRASYN_RETURN_NOT_OK(options.Validate());
  RETRASYN_RETURN_NOT_OK(CreateDirIfMissing(options.dir));
  std::vector<int64_t> checkpoints;
  std::vector<int64_t> histories;
  RETRASYN_RETURN_NOT_OK(
      ScanCheckpointDir(options.dir, &checkpoints, &histories));
  if (require_fresh && (!checkpoints.empty() || !histories.empty())) {
    return Status::FailedPrecondition(
        "checkpoint directory " + options.dir +
        " already holds checkpoints; Recover the existing deployment or "
        "point the new one elsewhere");
  }
  std::unique_ptr<CheckpointManager> manager(new CheckpointManager(options));
  manager->retained_rounds_ = std::move(checkpoints);
  if (!manager->retained_rounds_.empty()) {
    // No concurrency yet (the worker starts below), but last_checkpoint_round_
    // is guarded state; take the lock so the seeding is analysis-clean.
    MutexLock l(manager->mu_);
    manager->last_checkpoint_round_ = manager->retained_rounds_.back();
  }
  manager->worker_ = std::thread([m = manager.get()] { m->WorkerLoop(); });
  return manager;
}

CheckpointManager::~CheckpointManager() {
  {
    MutexLock l(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
}

void CheckpointManager::AttachTelemetry(Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry_ == nullptr) {
    writes_metric_ = nullptr;
    bytes_metric_ = nullptr;
    prunes_metric_ = nullptr;
    segments_retired_metric_ = nullptr;
    spills_metric_ = nullptr;
    poisonings_metric_ = nullptr;
    last_round_metric_ = nullptr;
    write_hist_ = nullptr;
    trace_ = nullptr;
    return;
  }
  MetricsRegistry& registry = telemetry_->registry();
  writes_metric_ = registry.GetCounter(
      "retrasyn_checkpoint_writes_total",
      "Checkpoints made durable (tmp + fsync + rename)");
  bytes_metric_ = registry.GetCounter(
      "retrasyn_checkpoint_bytes_written_total",
      "Body bytes written to checkpoint and history spill files");
  prunes_metric_ = registry.GetCounter(
      "retrasyn_checkpoint_prunes_total",
      "Checkpoints deleted by retention pruning");
  segments_retired_metric_ = registry.GetCounter(
      "retrasyn_checkpoint_segments_retired_total",
      "Journal segments retired by compaction");
  spills_metric_ = registry.GetCounter(
      "retrasyn_checkpoint_streams_spilled_total",
      "Closed synthetic streams moved from memory into history spill files");
  poisonings_metric_ = registry.GetCounter(
      "retrasyn_checkpoint_poisonings_total",
      "Sticky checkpoint-worker failures");
  last_round_metric_ = registry.GetGauge(
      "retrasyn_checkpoint_last_round",
      "Closed-round count of the newest durable checkpoint (-1 before the "
      "first)");
  last_round_metric_->Set(last_checkpoint_round());
  write_hist_ = registry.GetHistogram(
      "retrasyn_checkpoint_write_seconds",
      "Full checkpoint duration on the worker (spill + write + prune + "
      "retire)");
  trace_ = &telemetry_->trace();
}

void CheckpointManager::AttachJournals(std::vector<JournalWriter*> journals) {
  MutexLock l(mu_);
  if (journals.empty()) {
    for (JournalRetireState& j : journals_) j.writer = nullptr;
    return;
  }
  RETRASYN_CHECK_MSG(journals.size() == journals_.size(),
                     "AttachJournals needs one writer per journal_dirs entry");
  for (size_t i = 0; i < journals_.size(); ++i) {
    journals_[i].writer = journals[i];
  }
}

Status CheckpointManager::SeedRecovered(
    const CheckpointState& state, std::vector<int64_t> surviving_rounds,
    const std::vector<std::vector<ScannedSegment>>& segments_per_journal) {
  MutexLock l(mu_);
  if (busy_ || !ready_.empty() || !pending_.empty()) {
    return Status::FailedPrecondition(
        "SeedRecovered must run before the first captured round");
  }
  if (segments_per_journal.size() != journals_.size()) {
    return Status::InvalidArgument(
        "SeedRecovered needs one segment list per journal_dirs entry");
  }
  MutexLock sl(spill_mu_);  // mu_ -> spill_mu_, the documented order
  spills_.clear();
  for (int64_t round : state.spill_rounds) {
    SpillEntry entry;
    entry.round = round;
    entry.file_backed = true;
    spills_.push_back(std::move(entry));
  }
  retained_rounds_ = std::move(surviving_rounds);
  std::sort(retained_rounds_.begin(), retained_rounds_.end());
  if (!retained_rounds_.empty()) {
    last_checkpoint_round_ = retained_rounds_.back();
  }
  for (size_t i = 0; i < journals_.size(); ++i) {
    JournalRetireState& j = journals_[i];
    j.candidates.clear();
    for (const ScannedSegment& segment : segments_per_journal[i]) {
      j.candidates.push_back(SealedSegment{segment.index, segment.end_round});
    }
    if (!j.candidates.empty()) {
      j.first_live = j.candidates.front().index;
      j.first_live_known = true;
    }
  }
  return Status::OK();
}

void CheckpointManager::OnRoundClosed(int64_t sealed_round,
                                      EngineCheckpointState engine,
                                      std::vector<CellStream> spilled) {
  // Register spilled streams unconditionally: they have already left the
  // engine, so the spill registry is their only home from here on — even
  // when a poisoned manager will never write their file (they then simply
  // stay memory-backed, and snapshots stay complete).
  if (!spilled.empty()) {
    MutexLock l(spill_mu_);
    SpillEntry entry;
    entry.round = sealed_round + 1;
    entry.count = spilled.size();
    entry.streams = std::move(spilled);
    streams_spilled_ += entry.count;
    if (spills_metric_ != nullptr) spills_metric_->Add(entry.count);
    spills_.push_back(std::move(entry));
  }
  MutexLock l(mu_);
  if (stop_ || !error_.ok()) return;
  PendingCapture& capture = pending_[sealed_round];
  capture.engine = std::move(engine);
  capture.have_engine = true;
  MaybeEnqueueLocked(sealed_round);
}

void CheckpointManager::OnRoundCommitted(int64_t sealed_round,
                                         SessionCheckpointState session) {
  MutexLock l(mu_);
  if (stop_ || !error_.ok()) return;
  PendingCapture& capture = pending_[sealed_round];
  capture.session = std::move(session);
  capture.have_session = true;
  MaybeEnqueueLocked(sealed_round);
}

void CheckpointManager::MaybeEnqueueLocked(int64_t round) {
  auto it = pending_.find(round);
  if (it == pending_.end() || !it->second.have_engine ||
      !it->second.have_session) {
    return;
  }
  ready_.push_back(round);
  cv_.NotifyAll();
}

void CheckpointManager::WorkerLoop() {
  mu_.Lock();
  while (true) {
    while (!stop_ && (ready_.empty() || !error_.ok())) cv_.Wait(mu_);
    if (stop_) break;
    const int64_t round = ready_.front();
    ready_.pop_front();
    auto it = pending_.find(round);
    RETRASYN_DCHECK(it != pending_.end());
    PendingCapture capture = std::move(it->second);
    pending_.erase(it);
    busy_ = true;
    mu_.Unlock();
    Stopwatch write_watch;
    Status st = WriteCheckpoint(round, std::move(capture.engine),
                                std::move(capture.session));
    const double write_seconds = write_watch.ElapsedSeconds();
    if (write_hist_ != nullptr) write_hist_->Record(write_seconds);
    if (trace_ != nullptr) {
      trace_->RecordPhase(round, RoundPhase::kCheckpoint, write_seconds);
    }
    mu_.Lock();
    busy_ = false;
    if (!st.ok() && error_.ok()) {
      // Sticky poisoning, RoundCloser-style: drop everything queued — the
      // service surfaces the error on its next Tick and stops feeding us.
      error_ = st;
      ready_.clear();
      pending_.clear();
      if (poisonings_metric_ != nullptr) poisonings_metric_->Increment();
      if (telemetry_ != nullptr) {
        telemetry_->RecordFailure("checkpoint", st, round);
      }
    }
    cv_.NotifyAll();
  }
  mu_.Unlock();
}

Status CheckpointManager::WriteCheckpoint(int64_t sealed_round,
                                          EngineCheckpointState engine,
                                          SessionCheckpointState session) {
  const int64_t round = sealed_round + 1;  // closed-round count at capture

  // 1. Make this round's spill durable before the checkpoint that will
  //    reference it; older entries are already file-backed (their write
  //    preceded their checkpoint, and a failure would have poisoned us).
  std::vector<CellStream> to_write;
  bool have_spill = false;
  {
    MutexLock l(spill_mu_);
    for (const SpillEntry& entry : spills_) {
      if (entry.round == round && !entry.file_backed) {
        to_write = entry.streams;  // copy: the entry must stay servable
        have_spill = true;
        break;
      }
    }
  }
  if (have_spill) {
    std::string body;
    EncodeHistoryBody(to_write, &body);
    RETRASYN_RETURN_NOT_OK(WriteFramedFile(options_.dir,
                                           HistoryFileName(round),
                                           kHistoryMagic, options_.fingerprint,
                                           body));
    if (bytes_metric_ != nullptr) bytes_metric_->Add(body.size());
    MutexLock l(spill_mu_);
    for (SpillEntry& entry : spills_) {
      if (entry.round == round) {
        entry.file_backed = true;
        entry.streams.clear();
        entry.streams.shrink_to_fit();
        break;
      }
    }
  }

  // 2. The checkpoint itself, referencing every spill file it relies on.
  CheckpointState state;
  state.round = round;
  state.grid_describe = options_.grid_describe;
  state.engine = std::move(engine);
  state.session = std::move(session);
  {
    MutexLock l(spill_mu_);
    for (const SpillEntry& entry : spills_) {
      if (entry.round <= round) state.spill_rounds.push_back(entry.round);
    }
    std::sort(state.spill_rounds.begin(), state.spill_rounds.end());
  }
  std::string body;
  EncodeCheckpointBody(state, &body);
  RETRASYN_RETURN_NOT_OK(WriteFramedFile(options_.dir,
                                         CheckpointFileName(round),
                                         kCheckpointMagic,
                                         options_.fingerprint, body));
  if (bytes_metric_ != nullptr) bytes_metric_->Add(body.size());
  retained_rounds_.push_back(round);
  {
    MutexLock l(mu_);
    ++checkpoints_written_;
    last_checkpoint_round_ = round;
  }
  if (writes_metric_ != nullptr) writes_metric_->Increment();
  if (last_round_metric_ != nullptr) last_round_metric_->Set(round);

  // 3. Retention, then journal compaction against the new oldest survivor.
  RETRASYN_RETURN_NOT_OK(PruneCheckpoints());
  return RetireJournalPrefix();
}

Status CheckpointManager::PruneCheckpoints() {
  bool removed = false;
  while (retained_rounds_.size() > static_cast<size_t>(options_.retain)) {
    // History spill files are deliberately NOT pruned with their checkpoint:
    // newer checkpoints reference the full cumulative manifest.
    RETRASYN_RETURN_NOT_OK(RemoveFile(
        options_.dir + "/" + CheckpointFileName(retained_rounds_.front())));
    retained_rounds_.erase(retained_rounds_.begin());
    removed = true;
    if (prunes_metric_ != nullptr) prunes_metric_->Increment();
  }
  return removed ? SyncDir(options_.dir) : Status::OK();
}

Status CheckpointManager::RetireJournalPrefix() {
  if (journals_.empty() || retained_rounds_.empty()) {
    return Status::OK();
  }
  // Recovery may fall back to the OLDEST retained checkpoint, and its replay
  // suffix must reach back a full window behind that round; everything a
  // sealed segment holds at or before the cutoff is unreachable. The cutoff
  // is global; each shard journal's segments retire against it
  // independently (every shard journal closes every round).
  const int64_t cutoff =
      retained_rounds_.front() - static_cast<int64_t>(options_.window);
  uint64_t retired_now = 0;
  for (JournalRetireState& j : journals_) {
    {
      MutexLock l(mu_);
      if (j.writer != nullptr) {
        for (SealedSegment segment : j.writer->TakeSealedSegments()) {
          j.candidates.push_back(segment);
        }
      }
    }
    std::sort(j.candidates.begin(), j.candidates.end(),
              [](const SealedSegment& a, const SealedSegment& b) {
                return a.index < b.index;
              });
    if (!j.first_live_known && !j.candidates.empty()) {
      j.first_live = j.candidates.front().index;
      j.first_live_known = true;
    }
    uint64_t journal_retired = 0;
    int64_t base_round = 0;
    while (!j.candidates.empty() && j.candidates.front().index == j.first_live &&
           j.candidates.front().end_round <= cutoff) {
      base_round = j.candidates.front().end_round;
      j.first_live = j.candidates.front().index + 1;
      j.candidates.erase(j.candidates.begin());
      ++journal_retired;
    }
    if (journal_retired == 0) continue;
    RETRASYN_RETURN_NOT_OK(
        RetireJournalSegments(j.dir, j.first_live, base_round));
    j.retired_base_round = base_round;
    retired_now += journal_retired;
  }
  if (retired_now == 0) return Status::OK();
  if (segments_retired_metric_ != nullptr) {
    segments_retired_metric_->Add(retired_now);
  }
  MutexLock l(mu_);
  segments_retired_ += retired_now;
  return Status::OK();
}

Status CheckpointManager::AppendSpilledHistory(CellStreamSet* out) const {
  MutexLock l(spill_mu_);
  for (const SpillEntry& entry : spills_) {
    if (entry.file_backed) {
      const std::string path =
          options_.dir + "/" + HistoryFileName(entry.round);
      uint64_t fingerprint = 0;
      auto body = ReadFramedFile(path, kHistoryMagic, &fingerprint);
      if (!body.ok()) return body.status();
      if (fingerprint != options_.fingerprint) {
        return Status::IOError(path +
                               " carries a different deployment fingerprint");
      }
      std::vector<CellStream> streams;
      RETRASYN_RETURN_NOT_OK(
          DecodeHistoryBody(body.value().data(), body.value().size(),
                            &streams));
      for (CellStream& s : streams) {
        RETRASYN_RETURN_NOT_OK(out->Add(std::move(s)));
      }
    } else {
      for (const CellStream& s : entry.streams) {
        RETRASYN_RETURN_NOT_OK(out->Add(s));
      }
    }
  }
  return Status::OK();
}

bool CheckpointManager::has_spilled_history() const {
  MutexLock l(spill_mu_);
  return !spills_.empty();
}

Status CheckpointManager::status() const {
  MutexLock l(mu_);
  return error_;
}

Status CheckpointManager::WaitIdle() {
  MutexLock l(mu_);
  while (!stop_ && error_.ok() && (!ready_.empty() || busy_)) cv_.Wait(mu_);
  return error_;
}

uint64_t CheckpointManager::checkpoints_written() const {
  MutexLock l(mu_);
  return checkpoints_written_;
}

uint64_t CheckpointManager::segments_retired() const {
  MutexLock l(mu_);
  return segments_retired_;
}

uint64_t CheckpointManager::streams_spilled() const {
  MutexLock l(spill_mu_);
  return streams_spilled_;
}

int64_t CheckpointManager::last_checkpoint_round() const {
  MutexLock l(mu_);
  return last_checkpoint_round_;
}

Result<CheckpointState> CheckpointManager::LoadForRecovery(
    const std::string& dir, uint64_t fingerprint,
    std::vector<int64_t>* surviving_rounds, int* corrupt_skipped) {
  surviving_rounds->clear();
  if (corrupt_skipped != nullptr) *corrupt_skipped = 0;
  std::vector<int64_t> checkpoints;
  std::vector<int64_t> histories;
  RETRASYN_RETURN_NOT_OK(ScanCheckpointDir(dir, &checkpoints, &histories));

  CheckpointState chosen;
  bool found = false;
  bool removed = false;
  // Newest first; a structurally damaged checkpoint is deleted and the next
  // older one tried. A *valid* checkpoint from a different deployment fails
  // loudly instead — see the header contract.
  for (size_t i = checkpoints.size(); i-- > 0 && !found;) {
    const int64_t round = checkpoints[i];
    const std::string path = dir + "/" + CheckpointFileName(round);
    uint64_t stored_fingerprint = 0;
    auto body = ReadFramedFile(path, kCheckpointMagic, &stored_fingerprint);
    Status usable = body.status();
    if (usable.ok() && stored_fingerprint != fingerprint) {
      return Status::FailedPrecondition(
          path +
          " was written by a different deployment (grid, config, or engine "
          "changed); refusing to recover into a mismatched service");
    }
    CheckpointState state;
    if (usable.ok()) {
      usable = DecodeCheckpointBody(body.value().data(), body.value().size(),
                                    &state);
    }
    if (usable.ok() && state.round != round) {
      usable = Status::IOError(path + " declares round " +
                               std::to_string(state.round) +
                               " under a mismatching file name");
    }
    if (usable.ok()) {
      // Every referenced spill file must exist; checking sizes (not
      // contents) keeps recovery O(window) — AppendSpilledHistory verifies
      // checksums lazily when a snapshot actually reads the history.
      for (int64_t spill_round : state.spill_rounds) {
        auto size = FileSize(dir + "/" + HistoryFileName(spill_round));
        if (!size.ok() || size.value() <= 0) {
          usable = Status::IOError(
              path + " references the missing history spill file " +
              HistoryFileName(spill_round));
          break;
        }
      }
    }
    if (!usable.ok()) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(path));
      removed = true;
      if (corrupt_skipped != nullptr) ++*corrupt_skipped;
      checkpoints.erase(checkpoints.begin() + static_cast<ptrdiff_t>(i));
      continue;
    }
    chosen = std::move(state);
    found = true;
  }
  if (!found) {
    // No usable checkpoint at all: any history files are unreferenced.
    for (int64_t round : histories) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + HistoryFileName(round)));
      removed = true;
    }
    if (removed) RETRASYN_RETURN_NOT_OK(SyncDir(dir));
    return Status::NotFound("no usable checkpoint under " + dir);
  }
  // Prune history files the chosen manifest does not reference (a spill
  // whose checkpoint never became durable). Older retained checkpoints
  // reference prefixes of the same cumulative manifest, so this never
  // strands them.
  std::unordered_set<int64_t> referenced(chosen.spill_rounds.begin(),
                                         chosen.spill_rounds.end());
  for (int64_t round : histories) {
    if (referenced.count(round) == 0) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + HistoryFileName(round)));
      removed = true;
    }
  }
  if (removed) RETRASYN_RETURN_NOT_OK(SyncDir(dir));
  *surviving_rounds = std::move(checkpoints);
  return chosen;
}

}  // namespace retrasyn
