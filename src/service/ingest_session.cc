#include "service/ingest_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/radix_sort.h"
#include "common/stopwatch.h"

namespace retrasyn {

namespace {

std::string UserTag(uint64_t user) {
  return "user " + std::to_string(user);
}

Status ValidateLocation(const Point& p) {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
    return Status::InvalidArgument("location coordinates must be finite");
  }
  return Status::OK();
}

/// Observation buffers kept for reuse; beyond this, RecycleBatch frees.
constexpr size_t kMaxPooledObservationBuffers = 8;

/// \p slot's pending bits for \p open_round (none when stamped earlier).
uint8_t PendingBits(const UserTable::Slot& slot, int64_t open_round) {
  return slot.round == open_round ? slot.pending : 0;
}

/// \p slot's pending bits for \p open_round, dropping an older round's.
uint8_t& OpenPending(UserTable::Slot& slot, int64_t open_round) {
  if (slot.round != open_round) {
    slot.round = open_round;
    slot.pending = 0;
  }
  return slot.pending;
}

int64_t NowSteadyNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IngestSession::IngestSession(const StateSpace& states, RoundHandler handler,
                             Telemetry& telemetry,
                             IngestSessionOptions options)
    : states_(&states),
      grid_(&states.grid()),
      handler_(std::move(handler)),
      options_(options),
      telemetry_(telemetry) {
  RETRASYN_CHECK(handler_ != nullptr);
  // Service-layer callers validate first (ServiceOptions::Validate) and
  // surface a Status; reaching here with a nonsensical shard count is a
  // programming bug.
  RETRASYN_CHECK_MSG(options_.num_shards >= 1,
                     "an ingest session needs at least one shard");
  shards_.reserve(static_cast<size_t>(options_.num_shards));
  for (int i = 0; i < options_.num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  sealed_runs_.resize(shards_.size());
  if (options_.num_shards > 1) {
    seal_pool_ = std::make_unique<ThreadPool>(
        std::min(options_.num_shards, ThreadPool::DefaultConcurrency()));
  }
  RegisterMetrics();
}

void IngestSession::RegisterMetrics() {
  MetricsRegistry& registry = telemetry_.registry();
  rounds_sealed_metric_ = registry.GetCounter(
      "retrasyn_ingest_rounds_sealed_total", "Successful Tick() round closes");
  entries_merged_metric_ = registry.GetCounter(
      "retrasyn_ingest_entries_merged_total",
      "Observations across all sealed rounds");
  obs_buffers_reused_metric_ = registry.GetCounter(
      "retrasyn_ingest_obs_buffers_reused_total",
      "Rounds sealed into a recycled observation buffer");
  seal_hist_ = registry.GetHistogram(
      "retrasyn_ingest_seal_seconds",
      "Parallel per-shard seal phase of Tick() (wall)");
  merge_hist_ = registry.GetHistogram(
      "retrasyn_ingest_merge_seconds",
      "Parallel k-way merge + stream-index assignment phase of Tick() "
      "(wall)");
  commit_hist_ = registry.GetHistogram(
      "retrasyn_ingest_commit_seconds",
      "Post-handler state-commit phase of Tick() (wall)");
  for (size_t i = 0; i < shards_.size(); ++i) {
    const MetricsRegistry::Labels labels = {{"shard", std::to_string(i)}};
    Shard& shard = *shards_[i];
    shard.accepted_metric = registry.GetCounter(
        "retrasyn_ingest_events_accepted_total",
        "Events admitted into this shard", labels);
    shard.rejected_metric = registry.GetCounter(
        "retrasyn_ingest_events_rejected_total",
        "Events failing validation in this shard", labels);
    shard.pending_metric = registry.GetGauge(
        "retrasyn_ingest_pending_events",
        "Events buffered for the open round in this shard", labels);
    shard.peak_pending_metric = registry.GetGauge(
        "retrasyn_ingest_pending_events_peak",
        "High-water mark of pending events in this shard", labels);
    shard.active_metric = registry.GetGauge(
        "retrasyn_ingest_active_streams",
        "Live streams owned by this shard", labels);
    // A registry shared with an earlier session may already hold a peak;
    // the shard's own mark starts there so the gauge never moves down.
    MutexLock l(shard.mu);  // construction: uncontended
    shard.peak_pending =
        static_cast<size_t>(shard.peak_pending_metric->Value());
  }
}

void IngestSession::NoteAdmission() {
  if (round_admit_start_ns_.load(std::memory_order_relaxed) != 0) return;
  int64_t expected = 0;
  round_admit_start_ns_.compare_exchange_strong(expected, NowSteadyNanos(),
                                                std::memory_order_relaxed);
}

uint32_t IngestSession::ShardOf(uint64_t user, int num_shards) {
  RETRASYN_DCHECK(num_shards >= 1);
  // splitmix64 finalizer: sequential user ids spread evenly across shards.
  uint64_t x = user + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<uint32_t>(x % static_cast<uint64_t>(num_shards));
}

void IngestSession::AttachJournals(std::vector<JournalWriter*> journals) {
  if (journals.empty()) {
    for (auto& shard : shards_) {
      // Attach normally happens before producers start, but nothing enforces
      // that: producers read shard->journal under the shard lock, so take it
      // (setup-time cost only).
      MutexLock l(shard->mu);
      shard->journal = nullptr;
    }
    return;
  }
  RETRASYN_CHECK_MSG(journals.size() == shards_.size(),
                     "a sharded session needs exactly one journal per shard");
  for (size_t i = 0; i < shards_.size(); ++i) {
    RETRASYN_CHECK(journals[i] != nullptr);
    MutexLock l(shards_[i]->mu);  // see above
    shards_[i]->journal = journals[i];
  }
}

Status IngestSession::BoundaryPoison() const {
  if (!boundary_poisoned_.load(std::memory_order_acquire)) return Status::OK();
  return poison_status_;
}

// HOT PATH — per-event admission: one shard lock, one table probe.
Status IngestSession::Enter(uint64_t user, const Point& location) {
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());
  Shard& shard = shard_of(user);
  MutexLock l(shard.mu);
  // Re-check under the lock: Tick() sets the poison while holding every
  // shard mutex, so a producer that passed the fast-path check and then
  // blocked here must not journal an event after a skewed boundary.
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());
  Status st = EnterLocked(shard, user, location);
  if (st.ok()) {
    shard.accepted_metric->Increment();
    NoteAdmission();
  } else if (st.code() == StatusCode::kFailedPrecondition ||
             st.code() == StatusCode::kInvalidArgument) {
    shard.rejected_metric->Increment();
  }
  return st;
}

// HOT PATH — one probe; a new user's row is claimed from that same probe.
// Only the rejection messages allocate.
Status IngestSession::EnterLocked(Shard& shard, uint64_t user,
                                  const Point& location) {
  RETRASYN_RETURN_NOT_OK(ValidateLocation(location));
  const UserTable::ProbeResult probe = shard.table.Probe(user);
  if (probe.found) {
    const UserTable::Slot& slot = shard.table[probe.slot];
    const uint8_t pending = PendingBits(slot, open_round_);
    if (pending & UserTable::kPendingLocation) {
      return Status::FailedPrecondition(
          UserTag(user) + " already reported a location in round " +
          std::to_string(open_round_) + " (duplicate Enter?)");
    }
    if (slot.live && !(pending & UserTable::kPendingQuit)) {
      return Status::FailedPrecondition(
          UserTag(user) + " already has a live stream; Move to report its "
          "next location or Quit to end it before re-entering");
    }
  }
  if (shard.journal != nullptr) {
    RETRASYN_RETURN_NOT_OK(
        shard.journal->Append(JournalEvent::Enter(user, location)));
  }
  UserTable::Slot& slot =
      shard.table[probe.found ? probe.slot : shard.table.Insert(probe, user)];
  OpenPending(slot, open_round_) |=
      UserTable::kPendingLocation | UserTable::kPendingEnter;
  slot.state = states_->EnterIndex(grid_->Locate(location));
  ++shard.num_pending_enters;
  ++shard.num_pending_events;
  PublishPending(shard);
  return Status::OK();
}

// HOT PATH — per-event admission: one shard lock, one table probe.
Status IngestSession::Move(uint64_t user, const Point& location) {
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());
  Shard& shard = shard_of(user);
  MutexLock l(shard.mu);
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());  // see Enter
  Status st = MoveLocked(shard, user, location);
  if (st.ok()) {
    shard.accepted_metric->Increment();
    NoteAdmission();
  } else if (st.code() == StatusCode::kFailedPrecondition ||
             st.code() == StatusCode::kInvalidArgument) {
    shard.rejected_metric->Increment();
  }
  return st;
}

// HOT PATH — one probe; only the rejection messages allocate.
Status IngestSession::MoveLocked(Shard& shard, uint64_t user,
                                 const Point& location) {
  RETRASYN_RETURN_NOT_OK(ValidateLocation(location));
  const UserTable::ProbeResult probe = shard.table.Probe(user);
  const uint8_t pending =
      probe.found ? PendingBits(shard.table[probe.slot], open_round_) : 0;
  if (pending & UserTable::kPendingQuit) {
    return Status::FailedPrecondition(
        UserTag(user) + " quit in round " + std::to_string(open_round_) +
        "; Enter to start a new stream");
  }
  if (pending & UserTable::kPendingLocation) {
    return Status::FailedPrecondition(
        UserTag(user) + " already reported a location in round " +
        std::to_string(open_round_) + " (one report per timestamp)");
  }
  if (!probe.found || !shard.table[probe.slot].live) {
    return Status::FailedPrecondition(
        UserTag(user) + " has no live stream at round " +
        std::to_string(open_round_) +
        " (never entered, quit, or lapsed by a reporting gap); Enter first");
  }
  if (shard.journal != nullptr) {
    RETRASYN_RETURN_NOT_OK(
        shard.journal->Append(JournalEvent::Move(user, location)));
  }
  UserTable::Slot& slot = shard.table[probe.slot];
  OpenPending(slot, open_round_) |= UserTable::kPendingLocation;
  // The transition state is resolved here, once: a reachable cell indexes
  // directly, anything else is first clamped to the nearest reachable
  // neighbor, exactly like the batch feeder.
  const CellId cell = grid_->Locate(location);
  slot.state = states_->MoveIndex(slot.last_cell, cell);
  if (slot.state == kInvalidState) {
    slot.state = states_->MoveIndex(
        slot.last_cell, grid_->ClampToReachable(slot.last_cell, cell));
  }
  ++shard.num_pending_events;
  PublishPending(shard);
  return Status::OK();
}

// HOT PATH — per-event admission: one shard lock, one table probe.
Status IngestSession::Quit(uint64_t user) {
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());
  Shard& shard = shard_of(user);
  MutexLock l(shard.mu);
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());  // see Enter
  Status st = QuitLocked(shard, user);
  if (st.ok()) {
    shard.accepted_metric->Increment();
    NoteAdmission();
  } else if (st.code() == StatusCode::kFailedPrecondition ||
             st.code() == StatusCode::kInvalidArgument) {
    shard.rejected_metric->Increment();
  }
  return st;
}

// HOT PATH — one probe; only the rejection messages allocate.
Status IngestSession::QuitLocked(Shard& shard, uint64_t user) {
  const UserTable::ProbeResult probe = shard.table.Probe(user);
  const uint8_t pending =
      probe.found ? PendingBits(shard.table[probe.slot], open_round_) : 0;
  if ((pending & UserTable::kPendingQuit) &&
      !(pending & UserTable::kPendingLocation)) {
    return Status::FailedPrecondition(UserTag(user) + " already quit in round " +
                                      std::to_string(open_round_));
  }
  if (pending & UserTable::kPendingLocation) {
    if (pending & UserTable::kPendingEnter) {
      // The enter is still buffered — no report left the device — so quitting
      // simply cancels it. An explicit quit buffered before the enter (the
      // Quit -> Enter -> Quit ordering) stays: it closes the *old* stream.
      // The cancellation is journaled as the raw Quit it is; replay repeats
      // the same cancellation deterministically.
      if (shard.journal != nullptr) {
        RETRASYN_RETURN_NOT_OK(shard.journal->Append(JournalEvent::Quit(user)));
      }
      --shard.num_pending_enters;
      --shard.num_pending_events;
      PublishPending(shard);
      if (pending & UserTable::kPendingQuit) {
        shard.table[probe.slot].pending = UserTable::kPendingQuit;
      } else {
        // Without a quit the enter was a new stream's: the row held nothing
        // else.
        RETRASYN_DCHECK(!shard.table[probe.slot].live);
        shard.table.Erase(probe.slot);
      }
      return Status::OK();
    }
    return Status::FailedPrecondition(
        UserTag(user) + " reported a location in round " +
        std::to_string(open_round_) +
        "; the quit transition carries the previous round's location, so quit "
        "in the next round or just stop reporting");
  }
  if (!probe.found || !shard.table[probe.slot].live) {
    return Status::FailedPrecondition(UserTag(user) +
                                      " has no live stream to quit");
  }
  if (shard.journal != nullptr) {
    RETRASYN_RETURN_NOT_OK(shard.journal->Append(JournalEvent::Quit(user)));
  }
  OpenPending(shard.table[probe.slot], open_round_) |= UserTable::kPendingQuit;
  ++shard.num_pending_quits;
  ++shard.num_pending_events;
  PublishPending(shard);
  return Status::OK();
}

void IngestSession::PublishPending(Shard& shard) {
  shard.pending_metric->Set(static_cast<int64_t>(shard.num_pending_events));
  if (shard.num_pending_events > shard.peak_pending) {
    shard.peak_pending = shard.num_pending_events;
    shard.peak_pending_metric->Set(static_cast<int64_t>(shard.peak_pending));
  }
}

size_t IngestSession::num_active_users() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock l(shard->mu);
    n += shard->num_live - shard->num_pending_quits + shard->num_pending_enters;
  }
  return n;
}

size_t IngestSession::num_pending_events() const {
  size_t n = 0;
  for (const auto& shard : shards_) {
    MutexLock l(shard->mu);
    n += shard->num_pending_events;
  }
  return n;
}

void IngestSession::RecycleBatch(TimestampBatch&& batch) {
  MutexLock l(obs_pool_mu_);
  if (obs_pool_.size() >= kMaxPooledObservationBuffers) return;
  // Kept at its size: the next merge resizes it and overwrites every slot,
  // so only growth past this round's length is value-initialized.
  obs_pool_.push_back(std::move(batch.observations));
}

std::vector<UserObservation> IngestSession::AcquireObservationBuffer(
    bool* reused) {
  *reused = false;
  MutexLock l(obs_pool_mu_);
  if (obs_pool_.empty()) return {};
  std::vector<UserObservation> buffer = std::move(obs_pool_.back());
  obs_pool_.pop_back();
  *reused = true;
  return buffer;
}

size_t IngestSession::num_retiring_indices() const {
  size_t n = 0;
  for (const auto& [round, indices] : quitted_at_) n += indices.size();
  return n;
}

SessionCheckpointState IngestSession::SaveCheckpointState() const {
  // Runs inside Tick()'s commit hook, where the Tick thread still holds every
  // shard mutex (the all-shards protocol); single-threaded test callers hold
  // no locks but have no concurrency to race. AssertHeld records the custody
  // for the analysis without re-locking.
  size_t total_active = 0;
  size_t total_pending = 0;
  for (const auto& shard : shards_) {
    shard->mu.AssertHeld();
    total_active += shard->num_live;
    total_pending += shard->num_pending_events;
  }
  RETRASYN_CHECK_MSG(total_pending == 0,
                     "checkpoint capture requires a round boundary");
  SessionCheckpointState state;
  state.open_round = open_round_;
  state.next_stream_index = next_stream_index_;
  state.active.reserve(total_active);
  for (const auto& shard : shards_) {
    shard->mu.AssertHeld();
    const UserTable& table = shard->table;
    for (size_t i = 0; i < table.capacity(); ++i) {
      if (!table.occupied(i) || !table[i].live) continue;
      state.active.push_back(SessionCheckpointState::ActiveEntry{
          table[i].user, table[i].stream_index, table[i].last_cell});
    }
  }
  // User order merges the shard slices into the same vector a single shard
  // produces: the checkpoint bytes are shard-count agnostic.
  std::sort(state.active.begin(), state.active.end(),
            [](const SessionCheckpointState::ActiveEntry& a,
               const SessionCheckpointState::ActiveEntry& b) {
              return a.user < b.user;
            });
  state.quitted_at = quitted_at_;
  state.free_indices = free_indices_;
  return state;
}

Status IngestSession::RestoreCheckpointState(SessionCheckpointState state) {
  // Restore targets a fresh session, but "fresh" never implied "unobserved":
  // a monitoring thread polling num_active_users() during recovery
  // read shard->table while this wrote it. Hold every shard for the whole
  // restore, same index-order protocol as Tick().
  ShardLockSet locks(shards_);
  bool fresh = open_round_ == 0 && next_stream_index_ == 0;
  for (const auto& shard : shards_) {
    shard->mu.AssertHeld();
    fresh = fresh && shard->table.size() == 0;
  }
  if (!fresh) {
    return Status::FailedPrecondition(
        "checkpoint state can only be restored into a fresh session");
  }
  if (state.open_round < 0) {
    return Status::InvalidArgument(
        "corrupt checkpoint: negative open round");
  }
  if (state.next_stream_index > kMaxStreamIndex) {
    return Status::InvalidArgument(
        "corrupt checkpoint: stream-index high-water mark " +
        std::to_string(state.next_stream_index) + " exceeds the cap");
  }
  if (options_.window < 1 &&
      (!state.quitted_at.empty() || !state.free_indices.empty())) {
    return Status::InvalidArgument(
        "checkpoint carries index-recycling state but recycling is disabled");
  }
  // Every index must sit below the high-water mark and live in at most one
  // place (a live stream, a retiring bucket, or the free list).
  std::unordered_set<uint32_t> seen;
  auto claim_index = [&](uint32_t index) {
    return index < state.next_stream_index && seen.insert(index).second;
  };
  for (size_t i = 0; i < state.active.size(); ++i) {
    const SessionCheckpointState::ActiveEntry& e = state.active[i];
    if (!claim_index(e.stream_index) || e.last_cell >= states_->num_cells() ||
        (i > 0 && e.user <= state.active[i - 1].user)) {
      return Status::InvalidArgument(
          "corrupt checkpoint: invalid live-stream entry for user " +
          std::to_string(e.user));
    }
  }
  int64_t prev_round = INT64_MIN;
  for (const auto& [round, indices] : state.quitted_at) {
    if (round <= prev_round || round >= state.open_round) {
      return Status::InvalidArgument(
          "corrupt checkpoint: retirement bucket rounds out of order");
    }
    prev_round = round;
    for (uint32_t index : indices) {
      if (!claim_index(index)) {
        return Status::InvalidArgument(
            "corrupt checkpoint: invalid retiring stream index " +
            std::to_string(index));
      }
    }
  }
  for (uint32_t index : state.free_indices) {
    if (!claim_index(index)) {
      return Status::InvalidArgument(
          "corrupt checkpoint: invalid free stream index " +
          std::to_string(index));
    }
  }
  open_round_ = state.open_round;
  next_stream_index_ = state.next_stream_index;
  for (const SessionCheckpointState::ActiveEntry& e : state.active) {
    Shard& shard = shard_of(e.user);
    shard.mu.AssertHeld();
    // Users are unique (validated above), so the probe never finds one.
    UserTable::Slot& slot =
        shard.table[shard.table.Insert(shard.table.Probe(e.user), e.user)];
    slot.live = true;
    slot.stream_index = e.stream_index;
    slot.last_cell = e.last_cell;
    ++shard.num_live;
  }
  for (const auto& shard : shards_) {
    shard->mu.AssertHeld();
    shard->active_metric->Set(static_cast<int64_t>(shard->num_live));
  }
  quitted_at_ = std::move(state.quitted_at);
  free_indices_ = std::move(state.free_indices);
  return Status::OK();
}

void IngestSession::SizeSealBuffers(Shard& shard) {
  const size_t n = shard.num_live + shard.num_pending_enters;
  shard.entries.resize(n);
  shard.radix_scratch.resize(n);
}

// HOT PATH — one pass over the table, then a radix sort on the user id.
// The buffers are sized out of line (SizeSealBuffers).
void IngestSession::SealShard(Shard& shard) {
  SizeSealBuffers(shard);
  SealedEntry* const out = shard.entries.data();
  size_t n = 0;
  size_t quits = 0;
  const UserTable& table = shard.table;
  for (size_t i = 0; i < table.capacity(); ++i) {
    if (!table.occupied(i)) continue;
    const UserTable::Slot& slot = table[i];
    const uint8_t pending = PendingBits(slot, open_round_);
    const uint32_t slot_index = static_cast<uint32_t>(i);
    // An explicit quit, or an implicit one: a live stream that sent nothing
    // this round lapses, exactly like the batch importer splitting gapped
    // trajectories. Either way it carries the last reported cell.
    if ((pending & UserTable::kPendingQuit) ||
        (slot.live && !(pending & UserTable::kPendingLocation))) {
      out[n++] = SealedEntry{slot.user, slot_index, slot.stream_index,
                             states_->QuitIndex(slot.last_cell), 0, false};
      ++quits;
    }
    if (pending & UserTable::kPendingLocation) {
      const bool is_enter = (pending & UserTable::kPendingEnter) != 0;
      out[n++] = SealedEntry{slot.user, slot_index,
                             is_enter ? 0 : slot.stream_index, slot.state, 1,
                             is_enter};
    }
  }
  RETRASYN_DCHECK(n == shard.entries.size());
  shard.num_sealed_quits = quits;
  // Stable on the user id alone: the pass above emits a user's quit before
  // its location, and (user, phase) is unique, so the result is exactly the
  // (user, phase) order the merge's byte contract needs.
  const SealedEntry* sorted =
      RadixSortByKey(out, shard.radix_scratch.data(), n,
                     [](const SealedEntry& e) { return e.user; });
  if (sorted != out) shard.entries.swap(shard.radix_scratch);
}

void IngestSession::CommitShard(Shard& shard) {
  // In place, through each entry's slot, in (user, phase) order: a quit ends
  // the stream and drops the row unless the user re-enters right behind it;
  // a location (re)writes the stream. Erase moves no other row, so every
  // entry's slot stays valid; the pending bits need no clearing because the
  // next round's stamp supersedes them.
  const std::vector<SealedEntry>& entries = shard.entries;
  for (size_t k = 0; k < entries.size(); ++k) {
    const SealedEntry& e = entries[k];
    UserTable::Slot& slot = shard.table[e.slot];
    if (e.phase == 0) {
      slot.live = false;
      --shard.num_live;
      if (k + 1 == entries.size() || entries[k + 1].user != e.user) {
        shard.table.Erase(e.slot);
      }
    } else {
      // The location's cell, decoded from its state: e_c sits at
      // num_move_states() + c, and m_{last,c} at MoveOffset(last) + the
      // index of c in Neighbors(last).
      if (e.is_enter) {
        ++shard.num_live;
        slot.last_cell = e.state - states_->num_move_states();
      } else {
        slot.last_cell = grid_->Neighbors(
            slot.last_cell)[e.state - states_->MoveOffset(slot.last_cell)];
      }
      slot.live = true;
      slot.stream_index = e.stream_index;
    }
  }
  shard.num_pending_enters = 0;
  shard.num_pending_events = 0;
  shard.num_pending_quits = 0;
  shard.pending_metric->Set(0);
  shard.active_metric->Set(static_cast<int64_t>(shard.num_live));
}

Status IngestSession::Tick() {
  RETRASYN_RETURN_NOT_OK(BoundaryPoison());
  // Hold every shard for the whole round close (index order; producers lock
  // exactly one shard, so there is no deadlock). Producers arriving now block
  // until the new round opens — their events land in the next round. Per-shard
  // accesses below re-establish custody for the analysis with AssertHeld; the
  // seal-pool lambdas do too, because the workers run under locks *this*
  // thread holds (the ThreadPool job handoff provides the happens-before
  // edges; the TSan suite exercises exactly this).
  ShardLockSet locks(shards_);

  // Admit dwell: first admitted event -> this round boundary. Read, not
  // cleared — a failed Tick leaves the round (and its dwell clock) open.
  double admit_s = 0.0;
  const int64_t first_ns =
      round_admit_start_ns_.load(std::memory_order_relaxed);
  if (first_ns > 0) admit_s = (NowSteadyNanos() - first_ns) * 1e-9;

  for (auto& shard : shards_) {
    shard->mu.AssertHeld();
    if (shard->journal != nullptr) {
      // A poisoned journal fails the Tick before the handler can consume the
      // batch: the round stays open, fully retryable once durability
      // returns. Checking every shard upfront keeps the shard streams
      // aligned — no shard closes a round a sibling cannot.
      RETRASYN_RETURN_NOT_OK(shard->journal->status());
    }
  }
  for (auto& shard : shards_) {
    shard->mu.AssertHeld();
    if (shard->journal != nullptr) {
      // Start making this round's event data durable on the journal's
      // presync worker now, overlapped with sealing and the round handler
      // below, so the boundary record's fsync after the handler pays only
      // for itself.
      shard->journal->BeginRoundSync();
    }
  }

  // 1. Seal every shard into a sorted entry run, in parallel. Pure per-shard
  //    work — transition states and quit/move stream indices are functions
  //    of shard state alone — so the pool size never affects bytes.
  Stopwatch seal_watch;
  if (seal_pool_ != nullptr) {
    seal_pool_->ParallelFor(static_cast<int>(shards_.size()), [this](int i) {
      Shard& shard = *shards_[static_cast<size_t>(i)];
      shard.mu.AssertHeld();  // held by the Tick thread; see ShardLockSet above
      SealShard(shard);
    });
  } else {
    for (auto& shard : shards_) {
      shard->mu.AssertHeld();
      SealShard(*shard);
    }
  }
  const double seal_s = seal_watch.ElapsedSeconds();

  // Stream indices retiring this round: quitted_at_ buckets whose quit round
  // has left the w-window as of the round being sealed. Only *peeked* here —
  // nothing is popped until the handler succeeds — and purely a function of
  // the sealed batch sequence, so a retried Tick(), the async closer, and
  // journal replay all re-derive the identical assignment.
  size_t retiring_buckets = 0;
  size_t retiring_count = 0;
  while (retiring_buckets < quitted_at_.size() &&
         quitted_at_[retiring_buckets].first <=
             open_round_ - options_.window) {
    retiring_count += quitted_at_[retiring_buckets].second.size();
    ++retiring_buckets;
  }
  const size_t reusable = free_indices_.size() + retiring_count;

  // 2. Merge the sorted shard runs into the global (user, phase) order in
  //    user-id ranges on the seal pool (SealedRunMerger::ChunkCount; a
  //    single range without a pool).
  //    Identical to the single-shard global sort because shards partition the
  //    users, and identical for every range count because each range's
  //    output offset is fixed before it runs. Enters draw their stream index
  //    afterwards in merged order, from [free_indices_ | retiring buckets |
  //    fresh counter] (oldest retired first), which keeps the assignment a
  //    pure function of the batch sequence and byte-identical to a single
  //    shard. Nothing mutates session state: a failing handler must leave the
  //    round open with its events intact, and a retried Tick() must
  //    reproduce the identical batch. The pool workers read the runs under
  //    the shard mutexes this thread holds (custody asserted here, where the
  //    runs are taken; the ThreadPool job handoff orders the accesses).
  Stopwatch merge_watch;
  TimestampBatch batch;
  batch.t = open_round_;
  bool reused_buffer = false;
  batch.observations = AcquireObservationBuffer(&reused_buffer);
  size_t sealed = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& shard = *shards_[i];
    shard.mu.AssertHeld();
    sealed_runs_[i] = SealedRun{shard.entries.data(), shard.entries.size(),
                                shard.num_sealed_quits,
                                shard.num_pending_enters};
    sealed += shard.entries.size();
  }
  StreamIndexCursor cursor(free_indices_, quitted_at_, reusable,
                           next_stream_index_);
  std::vector<uint32_t> quit_indices;
  merger_.Merge(sealed_runs_,
                SealedRunMerger::ChunkCount(
                    sealed, seal_pool_ != nullptr ? seal_pool_->num_threads()
                                                  : 0),
                seal_pool_.get(), cursor, &batch,
                options_.window >= 1 ? &quit_indices : nullptr);
  const double merge_s = merge_watch.ElapsedSeconds();
  const size_t merged = batch.observations.size();
  const uint32_t next_index = cursor.next_fresh();
  if (next_index > kMaxStreamIndex) {
    // Refuse before the handler (and before the engine's dense bookkeeping
    // would CHECK-abort): the round stays open with its events intact. The
    // caller can shed pending enters (Quit cancels them) and retry, but a
    // deployment genuinely holding ~1.07B live-or-window-retained streams
    // has outgrown the 2^30 index space.
    return Status::ResourceExhausted(
        "stream-index space exhausted sealing round " +
        std::to_string(open_round_) + ": " +
        std::to_string(next_index - next_stream_index_) +
        " fresh indices needed past high-water mark " +
        std::to_string(next_stream_index_) + " (cap " +
        std::to_string(kMaxStreamIndex) + ", " + std::to_string(reusable) +
        " recycled indices were available)");
  }

  RETRASYN_RETURN_NOT_OK(handler_(std::move(batch)));
  // The handler consumed the round; its content is final. Journal the round
  // boundary on every shard (fsync point under FsyncPolicy::kEveryRound)
  // before committing. A failure here cannot roll the Tick back — retrying
  // would hand the handler the batch twice — so the round still commits,
  // this Tick returns the journal error, and the session-wide poison blocks
  // every later entry point: each shard's on-disk journal is at most this
  // one boundary behind, and no shard journals past a round a sibling's
  // journal never closed. The remaining shards still get their boundary
  // record (best effort), keeping the streams as aligned as the failure
  // allows.
  Status journaled;
  Stopwatch journal_watch;
  for (auto& shard : shards_) {
    shard->mu.AssertHeld();
    if (shard->journal == nullptr) continue;
    Status st = shard->journal->Append(JournalEvent::Tick());
    if (!st.ok() && journaled.ok()) journaled = st;
  }
  const double journal_s = journal_watch.ElapsedSeconds();
  if (!journaled.ok()) {
    poison_status_ = journaled;
    boundary_poisoned_.store(true, std::memory_order_release);
    telemetry_.RecordFailure("ingest_boundary", journaled, open_round_);
  }
  Stopwatch commit_watch;
  next_stream_index_ = next_index;
  if (options_.window >= 1) {
    // Commit the index lifecycle exactly as the cursors consumed it: drop
    // the used prefix of the free list, retire the peeked buckets (their
    // unconsumed suffix joins the free list), and bucket this round's quits
    // for retirement once the window passes them.
    const size_t consumed_free =
        std::min(cursor.consumed_reusable(), free_indices_.size());
    const size_t consumed_retiring =
        cursor.consumed_reusable() - consumed_free;
    free_indices_.erase(free_indices_.begin(),
                        free_indices_.begin() +
                            static_cast<std::ptrdiff_t>(consumed_free));
    size_t skip = consumed_retiring;
    for (size_t b = 0; b < retiring_buckets; ++b) {
      for (uint32_t index : quitted_at_.front().second) {
        if (skip > 0) {
          --skip;
          continue;
        }
        free_indices_.push_back(index);
      }
      quitted_at_.pop_front();
    }
    if (!quit_indices.empty()) {
      quitted_at_.emplace_back(open_round_, std::move(quit_indices));
    }
  }
  if (seal_pool_ != nullptr) {
    seal_pool_->ParallelFor(static_cast<int>(shards_.size()), [this](int i) {
      Shard& shard = *shards_[static_cast<size_t>(i)];
      shard.mu.AssertHeld();  // held by the Tick thread; see ShardLockSet above
      CommitShard(shard);
    });
  } else {
    for (auto& shard : shards_) {
      shard->mu.AssertHeld();
      CommitShard(*shard);
    }
  }
  const double commit_s = commit_watch.ElapsedSeconds();
  rounds_sealed_metric_->Increment();
  entries_merged_metric_->Add(merged);
  seal_hist_->Record(seal_s);
  merge_hist_->Record(merge_s);
  commit_hist_->Record(commit_s);
  if (reused_buffer) obs_buffers_reused_metric_->Increment();
  const int64_t sealed_round = open_round_;
  ++open_round_;
  round_admit_start_ns_.store(0, std::memory_order_relaxed);
  RoundTrace& trace = telemetry_.trace();
  trace.RecordPhase(sealed_round, RoundPhase::kAdmit, admit_s);
  trace.RecordPhase(sealed_round, RoundPhase::kSeal, seal_s);
  trace.RecordPhase(sealed_round, RoundPhase::kMerge, merge_s);
  trace.RecordPhase(sealed_round, RoundPhase::kJournal, journal_s);
  trace.RecordPhase(sealed_round, RoundPhase::kCommit, commit_s);
  // Fire the commit hook only when the boundary record reached every shard's
  // journal: a checkpoint captured here must never describe a round the
  // journal does not hold, or recovery could not bridge from checkpoint to
  // journal tail.
  if (journaled.ok() && commit_hook_) commit_hook_(sealed_round);
  return journaled;
}

Status IngestSession::AdvanceTo(int64_t t) {
  if (t < open_round_) {
    return Status::InvalidArgument(
        "cannot advance to timestamp " + std::to_string(t) + "; round " +
        std::to_string(open_round_) +
        " is already open and closed rounds are immutable");
  }
  while (open_round_ < t) {
    RETRASYN_RETURN_NOT_OK(Tick());
  }
  return Status::OK();
}

}  // namespace retrasyn
