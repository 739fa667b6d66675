#include "journal/journal_writer.h"

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "common/stopwatch.h"

namespace retrasyn {

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kEveryRound:
      return "every_round";
  }
  return "unknown";
}

Status JournalOptions::Validate() const {
  switch (fsync) {
    case FsyncPolicy::kNever:
    case FsyncPolicy::kEveryRound:
      return Status::OK();
  }
  return Status::InvalidArgument("unknown fsync policy");
}

std::string JournalWriter::SegmentFileName(uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "journal-%08llu.wal",
                static_cast<unsigned long long>(index));
  return buf;
}

bool JournalWriter::ParseSegmentFileName(const std::string& name,
                                         uint64_t* index) {
  // journal-NNNNNNNN.wal, at least 8 digits.
  constexpr char kPrefix[] = "journal-";
  constexpr char kSuffix[] = ".wal";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  constexpr size_t kSuffixLen = sizeof(kSuffix) - 1;
  if (name.size() < kPrefixLen + 8 + kSuffixLen) return false;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  if (name.compare(name.size() - kSuffixLen, kSuffixLen, kSuffix) != 0) {
    return false;
  }
  uint64_t value = 0;
  for (size_t i = kPrefixLen; i < name.size() - kSuffixLen; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *index = value;
  return true;
}

std::string ShardJournalDirName(int shard) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%03d", shard);
  return buf;
}

bool ParseShardJournalDirName(const std::string& name, int* shard) {
  // shard-NNN, at least 3 digits.
  constexpr char kPrefix[] = "shard-";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (name.size() < kPrefixLen + 3) return false;
  if (name.compare(0, kPrefixLen, kPrefix) != 0) return false;
  int value = 0;
  for (size_t i = kPrefixLen; i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    value = value * 10 + (name[i] - '0');
  }
  *shard = value;
  return true;
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::Open(
    const std::string& dir, const JournalOptions& options,
    Telemetry& telemetry) {
  RETRASYN_RETURN_NOT_OK(CreateDirIfMissing(dir));
  auto lock = FileLock::Acquire(dir + "/" + kLockFileName);
  if (!lock.ok()) return lock.status();
  auto names = ListDirectory(dir);
  if (!names.ok()) return names.status();
  uint64_t next_index = 0;
  for (const std::string& name : names.value()) {
    uint64_t index = 0;
    if (ParseSegmentFileName(name, &index) && index + 1 > next_index) {
      next_index = index + 1;
    }
  }
  return OpenLocked(dir, options, std::move(lock).value(), next_index,
                    telemetry);
}

Result<std::unique_ptr<JournalWriter>> JournalWriter::OpenLocked(
    const std::string& dir, const JournalOptions& options, FileLock lock,
    uint64_t next_segment_index, Telemetry& telemetry) {
  RETRASYN_RETURN_NOT_OK(options.Validate());
  if (!lock.held()) {
    return Status::InvalidArgument("OpenLocked requires a held journal lock");
  }
  std::unique_ptr<JournalWriter> writer(
      new JournalWriter(dir, options, next_segment_index, telemetry));
  writer->lock_ = std::move(lock);
  RETRASYN_RETURN_NOT_OK(writer->RotateSegment());
  return writer;
}

JournalWriter::JournalWriter(std::string dir, const JournalOptions& options,
                             uint64_t next_segment_index, Telemetry& telemetry)
    : dir_(std::move(dir)),
      options_(options),
      next_segment_index_(next_segment_index),
      telemetry_(telemetry) {
  MetricsRegistry& registry = telemetry_.registry();
  records_metric_ = registry.GetCounter(
      "retrasyn_journal_records_appended_total",
      "Framed records appended across all shard journals");
  rounds_metric_ = registry.GetCounter(
      "retrasyn_journal_rounds_appended_total",
      "Durable round-boundary records appended");
  bytes_metric_ = registry.GetCounter(
      "retrasyn_journal_bytes_appended_total",
      "Framed bytes appended (segment headers excluded)");
  segments_metric_ = registry.GetCounter(
      "retrasyn_journal_segments_created_total",
      "Segment files opened (rotations + initial segments)");
  fsyncs_metric_ = registry.GetCounter(
      "retrasyn_journal_fsyncs_total",
      "fdatasync/fsync calls issued (foreground + presync worker)");
  poisonings_metric_ = registry.GetCounter(
      "retrasyn_journal_poisonings_total",
      "Writers poisoned by a first I/O failure");
  fsync_hist_ = registry.GetHistogram(
      "retrasyn_journal_fsync_seconds",
      "Latency of journal fdatasync/fsync calls");
}

Status JournalWriter::SyncDataTimed() {
  Stopwatch watch;
  Status st = segment_.SyncData();
  fsync_hist_->Record(watch.ElapsedSeconds());
  fsyncs_metric_->Increment();
  return st;
}

void JournalWriter::NotePoison(const Status& st) {
  if (st.ok()) return;
  poisonings_metric_->Increment();
  telemetry_.RecordFailure(
      "journal", st, base_round_ + static_cast<int64_t>(rounds_appended_));
}

JournalWriter::~JournalWriter() {
  Close();
  if (presync_thread_.joinable()) {
    {
      MutexLock l(presync_mu_);
      presync_stop_ = true;
    }
    presync_cv_.NotifyAll();
    presync_thread_.join();
  }
}

void JournalWriter::PresyncLoop() {
  presync_mu_.Lock();
  while (true) {
    while (!presync_requested_ && !presync_stop_) presync_cv_.Wait(presync_mu_);
    if (presync_stop_) break;
    const int fd = presync_fd_;
    presync_mu_.Unlock();
    Stopwatch watch;
    const int rc = ::fdatasync(fd);
    const int err = errno;
    fsync_hist_->Record(watch.ElapsedSeconds());
    fsyncs_metric_->Increment();
    presync_mu_.Lock();
    if (rc != 0 && presync_error_.ok()) {
      presync_error_ =
          Status::IOError(std::string("background fdatasync: ") +
                          std::strerror(err));
    }
    presync_requested_ = false;
    presync_cv_.NotifyAll();
  }
  presync_mu_.Unlock();
}

void JournalWriter::BeginRoundSync() {
  if (options_.fsync != FsyncPolicy::kEveryRound || closed_ || !error_.ok() ||
      !segment_.is_open()) {
    return;
  }
  // Push the stdio buffer to the page cache so the worker sees every byte;
  // a flush failure is a real write failure and poisons the writer.
  Status flushed = segment_.Flush();
  if (!flushed.ok()) {
    error_ = flushed;
    NotePoison(flushed);
    return;
  }
  MutexLock l(presync_mu_);
  if (presync_requested_) return;  // previous round's presync still running
  presync_fd_ = segment_.fd();
  presync_requested_ = true;
  if (!presync_thread_.joinable()) {
    presync_thread_ = std::thread([this] { PresyncLoop(); });
  }
  presync_cv_.NotifyAll();
}

Status JournalWriter::WaitForPresync() {
  if (!presync_thread_.joinable()) return Status::OK();
  MutexLock l(presync_mu_);
  while (presync_requested_) presync_cv_.Wait(presync_mu_);
  if (!presync_error_.ok() && error_.ok()) {
    error_ = presync_error_;
    NotePoison(error_);
  }
  return error_;
}

Status JournalWriter::RotateSegment() {
  if (segment_.is_open()) {
    // Sync the finished segment before its successor exists — under every
    // policy, kNever included. Without this the OS may persist segment N+1
    // before segment N's tail, leaving a torn record in a non-final segment,
    // which recovery rightly treats as unrecoverable corruption rather than
    // the graceful suffix loss kNever promises. One fdatasync per
    // checkpoint cadence is noise.
    RETRASYN_RETURN_NOT_OK(SyncDataTimed());
    RETRASYN_RETURN_NOT_OK(segment_.Close());
  }
  const std::string path = dir_ + "/" + SegmentFileName(next_segment_index_);
  auto file = AppendableFile::Open(path);
  if (!file.ok()) return file.status();
  segment_ = std::move(file).value();
  ++next_segment_index_;
  ++segments_created_;
  segments_metric_->Increment();
  scratch_.clear();
  AppendSegmentHeader(options_.fingerprint, &scratch_);
  RETRASYN_RETURN_NOT_OK(segment_.Append(scratch_));
  // Make the header and the new file's directory entry durable before any
  // record lands (the entry is metadata of the *directory*, not the file:
  // file fsync alone cannot keep a crash from forgetting the segment ever
  // existed). kNever explicitly leaves all durability to the OS.
  if (options_.fsync != FsyncPolicy::kNever) {
    RETRASYN_RETURN_NOT_OK(SyncDataTimed());
    RETRASYN_RETURN_NOT_OK(SyncDir(dir_));
  }
  return Status::OK();
}

Status JournalWriter::Append(const JournalEvent& event) {
  RETRASYN_RETURN_NOT_OK(error_);
  if (closed_) {
    return Status::FailedPrecondition("append to a closed journal writer");
  }
  RETRASYN_RETURN_NOT_OK(WaitForPresync());
  scratch_.clear();
  EncodeRecord(event, &scratch_);
  const uint64_t record_bytes = scratch_.size();

  Status st = segment_.Append(scratch_);
  if (st.ok() && event.type == JournalEventType::kTick) {
    // fdatasync, not fsync: an append's data plus the size metadata needed
    // to read it back is exactly what fdatasync covers; mtime can lag.
    if (options_.fsync == FsyncPolicy::kEveryRound) st = SyncDataTimed();
    if (st.ok()) {
      ++rounds_appended_;
      rounds_metric_->Increment();
      // Rotate only at a durable boundary that completes a checkpoint round:
      // every finished segment ends on a closed round, so a torn tail can
      // only live in the last one, and compaction retires whole segments.
      const int64_t closed =
          base_round_ + static_cast<int64_t>(rounds_appended_);
      if (IsCheckpointRound(closed, options_.checkpoint_every_rounds)) {
        {
          MutexLock l(sealed_mu_);
          sealed_.push_back(SealedSegment{next_segment_index_ - 1, closed});
        }
        st = RotateSegment();
      }
    }
  }
  if (!st.ok()) {
    error_ = st;
    NotePoison(st);
    return st;
  }
  ++records_appended_;
  bytes_appended_ += record_bytes;
  records_metric_->Increment();
  bytes_metric_->Add(record_bytes);
  return Status::OK();
}

std::vector<SealedSegment> JournalWriter::TakeSealedSegments() {
  MutexLock l(sealed_mu_);
  std::vector<SealedSegment> taken = std::move(sealed_);
  sealed_.clear();
  return taken;
}

Status JournalWriter::Sync() {
  RETRASYN_RETURN_NOT_OK(error_);
  if (closed_) {
    return Status::FailedPrecondition("sync of a closed journal writer");
  }
  RETRASYN_RETURN_NOT_OK(WaitForPresync());
  Stopwatch watch;
  Status st = segment_.Sync();
  fsync_hist_->Record(watch.ElapsedSeconds());
  fsyncs_metric_->Increment();
  if (!st.ok()) {
    error_ = st;
    NotePoison(st);
  }
  return st;
}

Status JournalWriter::Close() {
  if (closed_) return error_;
  WaitForPresync();
  closed_ = true;
  Status st = segment_.is_open() ? segment_.Close() : Status::OK();
  if (!st.ok() && error_.ok()) {
    error_ = st;
    NotePoison(st);
  }
  lock_.Release();
  return error_;
}

}  // namespace retrasyn
