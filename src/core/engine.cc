#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "core/dmu.h"

namespace retrasyn {

// Budget-division rounds below this epsilon are skipped outright: the OUE
// estimator's denominator p - q = 1/2 - 1/(e^eps + 1) vanishes as eps -> 0,
// so a microscopic budget yields numerically explosive pure noise (and at
// eps < ~1e-16, exact 0/0 NaNs). Skipping lets the window recover instead.
constexpr double kMinRoundEpsilon = 1e-4;

Status RetraSynConfig::Validate() const {
  RETRASYN_RETURN_NOT_OK(ServiceOptions::Validate());
  if (!std::isfinite(epsilon) || epsilon <= 0.0) {
    return Status::InvalidArgument(
        "epsilon must be a positive finite privacy budget, got " +
        std::to_string(epsilon));
  }
  if (window < 1) {
    return Status::InvalidArgument(
        "window must be at least 1 timestamp (w-event privacy), got " +
        std::to_string(window));
  }
  if (!std::isfinite(lambda) || lambda <= 0.0) {
    return Status::InvalidArgument(
        "lambda (Eq. 8 stream-length reweighting factor) must be a positive "
        "finite value, got " +
        std::to_string(lambda));
  }
  if (allocation.kind == AllocationKind::kRandom &&
      division != DivisionStrategy::kPopulation) {
    return Status::InvalidArgument(
        "the Random allocation strategy schedules per-user report slots and "
        "is only defined under population division");
  }
  if (!std::isfinite(allocation.max_portion) ||
      allocation.max_portion <= 0.0 || allocation.max_portion > 1.0) {
    return Status::InvalidArgument(
        "allocation.max_portion must lie in (0, 1], got " +
        std::to_string(allocation.max_portion));
  }
  if (!(allocation.min_portion <= 1.0)) {  // also rejects NaN
    return Status::InvalidArgument(
        "allocation.min_portion must not exceed 1, got " +
        std::to_string(allocation.min_portion));
  }
  if (num_threads < 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 1 (or 0 to resolve to the hardware "
        "concurrency), got " +
        std::to_string(num_threads));
  }
  if (num_threads > kMaxThreads) {
    return Status::InvalidArgument(
        "num_threads " + std::to_string(num_threads) +
        " exceeds the sanity cap of " + std::to_string(kMaxThreads));
  }
  return Status::OK();
}

int ResolveThreads(const RetraSynConfig& config) {
  if (config.num_threads > 0) return config.num_threads;
  if (config.thread_pool != nullptr) return config.thread_pool->num_threads();
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

SynthesizerConfig MakeSynthesizerConfig(const RetraSynConfig& config) {
  SynthesizerConfig synth;
  synth.lambda = config.lambda;
  synth.use_quit = config.use_eq;
  synth.use_size_adjustment = config.use_eq;
  synth.random_init = !config.use_eq;
  synth.num_threads = ResolveThreads(config);
  return synth;
}

}  // namespace

const char* DivisionStrategyName(DivisionStrategy division) {
  switch (division) {
    case DivisionStrategy::kBudget:
      return "b";
    case DivisionStrategy::kPopulation:
      return "p";
  }
  return "?";
}

RetraSynEngine::RetraSynEngine(const StateSpace& states,
                               const RetraSynConfig& config)
    : states_(&states),
      config_(config),
      rng_(config.seed),
      collector_(states.size(), config.collection_mode, config.oracle),
      model_(states),
      synthesizer_(states, MakeSynthesizerConfig(config)),
      allocator_(config.allocation, config.window, states.size()),
      ledger_(config.window, config.epsilon),
      tracker_(config.window) {
  // Programmatic construction aborts on a bad config (a programming bug);
  // service-layer callers validate first and surface the Status instead.
  config.Validate().CheckOK();
  const int threads = ResolveThreads(config);
  if (config.thread_pool != nullptr) {
    pool_ = config.thread_pool;  // shared across engines (multi-tenant)
  } else if (threads > 1) {
    pool_ = std::make_shared<ThreadPool>(threads);
  }
  synthesizer_.SetThreadPool(pool_.get());
}

std::string RetraSynEngine::name() const {
  std::string base = "RetraSyn";
  if (!config_.use_dmu) base = "AllUpdate";
  if (!config_.use_eq) base = "NoEQ";
  base += DivisionStrategyName(config_.division);
  base += "-";
  base += AllocationKindName(config_.allocation.kind);
  return base;
}

bool RetraSynEngine::ObservationEligible(const UserObservation& obs) const {
  if (!config_.use_eq && (obs.is_enter || obs.is_quit)) return false;
  return true;
}

void RetraSynEngine::EnsureUser(uint32_t user) {
  if (user < status_.size()) return;
  // The bookkeeping is dense over user_index: indices must be the compact
  // stream indices of the service layer / feeder (cumulative, or recycled
  // per RetireQuitted), not arbitrary device ids. The cap turns a miskeyed
  // id (which would silently allocate gigabytes) into an immediate,
  // diagnosable failure — IngestSession::Tick() refuses to mint indices at
  // the cap with kResourceExhausted before they ever reach this check.
  RETRASYN_CHECK_MSG(user < kMaxStreamIndex,
                     "user_index must be a dense stream index");
  // Grow geometrically so the amortized cost per new user is O(1). The
  // report-slot schedule only exists under the Random allocation strategy.
  const size_t size = std::max<size_t>(user + 1, status_.size() * 2);
  status_.resize(size, UserStatus::kUnknown);
  if (config_.allocation.kind == AllocationKind::kRandom) {
    report_slot_.resize(size, kNoSlot);
  }
}

void RetraSynEngine::RetireQuitted(int64_t t) {
  retired_last_round_.clear();
  // A quitted stream's last possible report was its quit round (the quit
  // transition itself), so once that round leaves the w-window the index's
  // whole contribution has left it too — Alg. 1's recycle boundary, applied
  // to the index lifecycle. Resetting to kUnknown makes the slot
  // indistinguishable from a never-used one, which is why the released bytes
  // are identical whether the session re-issues the index or mints a fresh
  // one. This runs before arrival registration: an enter in this very batch
  // may already carry a retired index.
  while (!quitted_at_.empty() &&
         quitted_at_.front().first <= t - config_.window) {
    for (uint32_t user : quitted_at_.front().second) {
      status_[user] = UserStatus::kUnknown;
      if (config_.allocation.kind == AllocationKind::kRandom) {
        report_slot_[user] = kNoSlot;
      }
      retired_last_round_.push_back(user);
    }
    total_retired_ += quitted_at_.front().second.size();
    quitted_at_.pop_front();
  }
}

std::vector<uint32_t> RetraSynEngine::PrepareEligible(
    const TimestampBatch& batch) {
  const int64_t t = batch.t;
  RetireQuitted(t);
  // Register arrivals as active (Alg. 1 line 7).
  for (const UserObservation& obs : batch.observations) {
    if (obs.is_enter) {
      EnsureUser(obs.user_index);
      status_[obs.user_index] = UserStatus::kActive;
      if (config_.allocation.kind == AllocationKind::kRandom) {
        report_slot_[obs.user_index] =
            t + static_cast<int64_t>(rng_.UniformInt(
                    static_cast<uint64_t>(config_.window)));
      }
    }
  }
  // Recycle users whose report is now outside the window (Alg. 1 line 9).
  while (!reported_at_.empty() &&
         reported_at_.front().first <= t - config_.window) {
    for (uint32_t user : reported_at_.front().second) {
      // Recorded reporters are always within the dense range.
      if (status_[user] == UserStatus::kInactive) {
        status_[user] = UserStatus::kActive;
        if (config_.allocation.kind == AllocationKind::kRandom) {
          report_slot_[user] =
              t + static_cast<int64_t>(rng_.UniformInt(
                      static_cast<uint64_t>(config_.window)));
        }
      }
    }
    reported_at_.pop_front();
  }
  // Eligible = present in this batch, status active, and within the
  // engine's observable state set.
  std::vector<uint32_t> eligible;
  eligible.reserve(batch.observations.size());
  for (uint32_t i = 0; i < batch.observations.size(); ++i) {
    const UserObservation& obs = batch.observations[i];
    if (!ObservationEligible(obs)) continue;
    if (obs.user_index >= status_.size() ||
        status_[obs.user_index] != UserStatus::kActive) {
      continue;
    }
    eligible.push_back(i);
  }
  return eligible;
}

std::vector<uint32_t> RetraSynEngine::ChooseReporters(
    const TimestampBatch& batch, const std::vector<uint32_t>& eligible) {
  const int64_t t = batch.t;
  if (config_.allocation.kind == AllocationKind::kRandom) {
    std::vector<uint32_t> chosen;
    for (uint32_t i : eligible) {
      const uint32_t user = batch.observations[i].user_index;
      if (user < report_slot_.size() && report_slot_[user] == t) {
        chosen.push_back(i);
      }
    }
    return chosen;
  }
  const double p = allocator_.Portion(t);
  const uint32_t k = static_cast<uint32_t>(
      std::llround(p * static_cast<double>(eligible.size())));
  if (k == 0) return {};
  if (k >= eligible.size()) return eligible;
  std::vector<uint32_t> picks = rng_.SampleWithoutReplacement(
      static_cast<uint32_t>(eligible.size()), k);
  std::vector<uint32_t> chosen;
  chosen.reserve(picks.size());
  for (uint32_t p_idx : picks) chosen.push_back(eligible[p_idx]);
  return chosen;
}

void RetraSynEngine::CommitStatuses(const TimestampBatch& batch,
                                    const std::vector<uint32_t>& chosen) {
  const int64_t t = batch.t;
  std::vector<uint32_t> reported_users;
  reported_users.reserve(chosen.size());
  for (uint32_t i : chosen) {
    const uint32_t user = batch.observations[i].user_index;
    EnsureUser(user);
    status_[user] = UserStatus::kInactive;
    reported_users.push_back(user);
    tracker_.RecordReport(user, t);
  }
  if (!reported_users.empty()) {
    reported_at_.emplace_back(t, std::move(reported_users));
  }
  // Quitting users never report again (Alg. 1 line 8); this overrides the
  // inactive mark for quitters that were chosen this round.
  std::vector<uint32_t> quitted;
  for (const UserObservation& obs : batch.observations) {
    if (obs.is_quit) {
      EnsureUser(obs.user_index);
      status_[obs.user_index] = UserStatus::kQuitted;
      if (config_.allocation.kind == AllocationKind::kRandom) {
        report_slot_[obs.user_index] = kNoSlot;
      }
      quitted.push_back(obs.user_index);
    }
  }
  if (!quitted.empty()) quitted_at_.emplace_back(t, std::move(quitted));
}

void RetraSynEngine::Observe(const TimestampBatch& batch) {
  const int64_t t = batch.t;

  // --- Reporting set & per-report budget --------------------------------
  Stopwatch select_watch;
  std::vector<StateId> report_states;
  double eps_round = 0.0;
  if (config_.division == DivisionStrategy::kPopulation) {
    const std::vector<uint32_t> eligible = PrepareEligible(batch);
    const std::vector<uint32_t> chosen = ChooseReporters(batch, eligible);
    report_states.reserve(chosen.size());
    for (uint32_t i : chosen) {
      report_states.push_back(batch.observations[i].state);
    }
    CommitStatuses(batch, chosen);
    eps_round = config_.epsilon;
    ledger_.Record(t, 0.0);  // keep the ledger clock advancing
  } else {
    for (const UserObservation& obs : batch.observations) {
      if (ObservationEligible(obs)) report_states.push_back(obs.state);
    }
    double eps_t = 0.0;
    if (!report_states.empty()) {
      switch (config_.allocation.kind) {
        case AllocationKind::kUniform:
          eps_t = config_.epsilon / config_.window;
          break;
        case AllocationKind::kSample:
          eps_t = (t % config_.window == 0) ? config_.epsilon : 0.0;
          break;
        case AllocationKind::kAdaptive:
          eps_t = allocator_.Portion(t) * ledger_.RemainingAt(t);
          break;
        case AllocationKind::kRandom:
          RETRASYN_CHECK_MSG(false, "unreachable: Random is population-only");
      }
      eps_t = std::min(eps_t, ledger_.RemainingAt(t));
    }
    if (!(eps_t >= kMinRoundEpsilon)) {  // also rejects NaN
      eps_t = 0.0;
      report_states.clear();
    }
    ledger_.Record(t, report_states.empty() ? 0.0 : eps_t);
    eps_round = eps_t;
  }
  if (select_hist_ != nullptr) {
    select_hist_->Record(select_watch.ElapsedSeconds());
  }

  // --- LDP collection ----------------------------------------------------
  CollectTimings timings;
  CollectionResult result =
      collector_.Collect(report_states, eps_round, rng_, &timings);
  times_.user_side.Add(timings.user_side_seconds);
  if (user_side_hist_ != nullptr) {
    user_side_hist_->Record(timings.user_side_seconds);
  }
  if (result.num_reports > 0) {
    Stopwatch postprocess_watch;
    ApplyPostprocess(config_.postprocess, result.frequencies, 1.0);
    timings.aggregation_seconds += postprocess_watch.ElapsedSeconds();
  }
  times_.model_construction.Add(timings.aggregation_seconds);
  if (model_hist_ != nullptr) model_hist_->Record(timings.aggregation_seconds);
  total_reports_ += result.num_reports;
  if (reports_metric_ != nullptr) reports_metric_->Add(result.num_reports);

  // --- Model update (DMU, SIII-C) ----------------------------------------
  Stopwatch dmu_watch;
  size_t num_significant = 0;
  if (result.num_reports > 0) {
    if (!collected_once_ || !config_.use_dmu) {
      // Full replacement (initialization / AllUpdate): no DMU selection took
      // place, so no significant-transition count enters the Eq. 10 history.
      model_.ReplaceAll(result.frequencies);
      collected_once_ = true;
    } else {
      const DmuDecision decision = SelectSignificantTransitions(
          model_.frequencies(), result.frequencies, eps_round,
          result.num_reports);
      model_.UpdateStates(decision.selected, result.frequencies);
      num_significant = decision.selected.size();
    }
  }
  const double dmu_seconds = dmu_watch.ElapsedSeconds();
  times_.dmu.Add(dmu_seconds);
  if (dmu_hist_ != nullptr) dmu_hist_->Record(dmu_seconds);
  if (config_.allocation.kind == AllocationKind::kAdaptive &&
      result.num_reports > 0) {
    allocator_.RecordRound(result.frequencies, num_significant);
  }

  // --- Real-time synthesis (SIII-D) --------------------------------------
  Stopwatch syn_watch;
  if (model_.initialized()) {
    if (!synthesizer_.initialized()) {
      synthesizer_.Initialize(model_, batch.num_active, t, rng_);
    } else {
      synthesizer_.Step(model_, batch.num_active, t, rng_);
    }
  }
  const double synthesis_seconds = syn_watch.ElapsedSeconds();
  times_.synthesis.Add(synthesis_seconds);
  if (synthesis_hist_ != nullptr) synthesis_hist_->Record(synthesis_seconds);
  if (rounds_metric_ != nullptr) rounds_metric_->Increment();
}

void RetraSynEngine::AttachTelemetry(Telemetry* telemetry) {
  if (telemetry == nullptr) {
    rounds_metric_ = nullptr;
    reports_metric_ = nullptr;
    select_hist_ = nullptr;
    user_side_hist_ = nullptr;
    model_hist_ = nullptr;
    dmu_hist_ = nullptr;
    synthesis_hist_ = nullptr;
    synthesizer_.AttachTelemetry(nullptr);
    return;
  }
  MetricsRegistry& registry = telemetry->registry();
  rounds_metric_ = registry.GetCounter("retrasyn_engine_rounds_observed_total",
                                       "Timestamp batches consumed by "
                                       "Observe()");
  reports_metric_ = registry.GetCounter(
      "retrasyn_engine_reports_total",
      "LDP reports collected across all rounds");
  select_hist_ = registry.GetHistogram(
      "retrasyn_engine_select_seconds",
      "Per-round reporting-set selection and budget division time (before "
      "LDP collection)");
  user_side_hist_ = registry.GetHistogram(
      "retrasyn_engine_user_side_seconds",
      "Per-round user-side LDP collection time (paper Table V)");
  model_hist_ = registry.GetHistogram(
      "retrasyn_engine_model_construction_seconds",
      "Per-round aggregation + post-processing time");
  dmu_hist_ = registry.GetHistogram(
      "retrasyn_engine_dmu_seconds",
      "Per-round dynamic model update time");
  synthesis_hist_ = registry.GetHistogram(
      "retrasyn_engine_synthesis_seconds",
      "Per-round synthesis time (Initialize/Step)");
  synthesizer_.AttachTelemetry(telemetry);
}

EngineCheckpointState RetraSynEngine::SaveCheckpointState() const {
  EngineCheckpointState state;
  state.rng_state = rng_.state();
  state.collected_once = collected_once_;
  state.total_reports = total_reports_;
  state.model_freq = model_.frequencies();
  state.model_initialized = model_.initialized();
  synthesizer_.SaveCheckpointState(&state.live, &state.finished);
  state.total_points = synthesizer_.total_points();
  state.synth_initialized = synthesizer_.initialized();
  state.allocator_rounds_recorded = allocator_.rounds_recorded();
  state.allocator_freq_history = allocator_.freq_history();
  state.allocator_ratio_history = allocator_.ratio_history();
  state.ledger_spends = ledger_.spends();
  state.ledger_window_sum = ledger_.window_sum();
  state.ledger_last_t = ledger_.last_t();
  state.ledger_max_window_spend = ledger_.MaxWindowSpend();
  state.tracker_last_report = tracker_.last_reports();
  state.tracker_violation = tracker_.HasViolation();
  state.tracker_num_reports = tracker_.num_reports();
  state.status.reserve(status_.size());
  for (UserStatus s : status_) {
    state.status.push_back(static_cast<uint8_t>(s));
  }
  state.report_slot = report_slot_;
  state.reported_at = reported_at_;
  state.quitted_at = quitted_at_;
  state.total_retired = total_retired_;
  return state;
}

Status RetraSynEngine::RestoreCheckpointState(EngineCheckpointState state) {
  if (state.model_freq.size() != states_->size()) {
    return Status::InvalidArgument(
        "checkpointed model has " + std::to_string(state.model_freq.size()) +
        " states, this deployment has " + std::to_string(states_->size()));
  }
  // The dense vectors may legitimately exceed kMaxStreamIndex by the final
  // geometric-growth doubling, never by more.
  if (state.status.size() > 2 * static_cast<size_t>(kMaxStreamIndex)) {
    return Status::InvalidArgument("checkpointed dense state impossibly big");
  }
  for (uint8_t s : state.status) {
    if (s > static_cast<uint8_t>(UserStatus::kQuitted)) {
      return Status::InvalidArgument("checkpointed user status out of range");
    }
  }
  const bool random_slots =
      config_.allocation.kind == AllocationKind::kRandom;
  if (random_slots ? state.report_slot.size() != state.status.size()
                   : !state.report_slot.empty()) {
    return Status::InvalidArgument(
        "checkpointed report-slot schedule does not match the allocation "
        "strategy");
  }
  const uint32_t num_cells = states_->num_cells();
  auto streams_valid = [&](const std::vector<CellStream>& streams) {
    for (const CellStream& s : streams) {
      if (s.cells.empty() || s.enter_time < 0) return false;
      for (CellId c : s.cells) {
        if (c >= num_cells) return false;
      }
    }
    return true;
  };
  if (!streams_valid(state.live) || !streams_valid(state.finished)) {
    return Status::InvalidArgument(
        "checkpointed synthetic stream holds an out-of-range cell");
  }
  auto buckets_valid =
      [&](const std::deque<std::pair<int64_t, std::vector<uint32_t>>>& b) {
        for (const auto& bucket : b) {
          for (uint32_t user : bucket.second) {
            if (user >= state.status.size()) return false;
          }
        }
        return true;
      };
  if (!buckets_valid(state.reported_at) || !buckets_valid(state.quitted_at)) {
    return Status::InvalidArgument(
        "checkpointed report/quit bucket references an unknown index");
  }
  // The report tracker is dense over the same indices, so its users are
  // bounded by the status vector (checked above) before anything is sized
  // from them; they are saved in strictly increasing user order.
  for (size_t i = 0; i < state.tracker_last_report.size(); ++i) {
    const uint64_t user = state.tracker_last_report[i].first;
    if (user >= state.status.size()) {
      return Status::InvalidArgument(
          "checkpointed report tracker references an unknown index");
    }
    if (i > 0 && user <= state.tracker_last_report[i - 1].first) {
      return Status::InvalidArgument(
          "checkpointed report tracker is not in strictly increasing user "
          "order");
    }
  }
  if (!rng_.set_state(state.rng_state)) {
    return Status::InvalidArgument("checkpointed RNG state is all-zero");
  }
  collected_once_ = state.collected_once;
  total_reports_ = state.total_reports;
  model_.Restore(std::move(state.model_freq), state.model_initialized);
  synthesizer_.Restore(state.live, state.finished,
                       state.total_points, state.synth_initialized);
  allocator_.Restore(state.allocator_rounds_recorded,
                     std::move(state.allocator_freq_history),
                     std::move(state.allocator_ratio_history));
  ledger_.Restore(std::move(state.ledger_spends), state.ledger_window_sum,
                  state.ledger_last_t, state.ledger_max_window_spend);
  tracker_.Restore(state.tracker_last_report, state.tracker_violation,
                   state.tracker_num_reports);
  status_.clear();
  status_.reserve(state.status.size());
  for (uint8_t s : state.status) {
    status_.push_back(static_cast<UserStatus>(s));
  }
  report_slot_ = std::move(state.report_slot);
  reported_at_ = std::move(state.reported_at);
  quitted_at_ = std::move(state.quitted_at);
  retired_last_round_.clear();
  total_retired_ = state.total_retired;
  return Status::OK();
}

CellStreamSet RetraSynEngine::SnapshotRelease(int64_t num_timestamps) const {
  return synthesizer_.Snapshot(num_timestamps);
}

std::vector<uint32_t> RetraSynEngine::LiveDensity() const {
  return synthesizer_.LiveDensity();  // all zeros before initialization
}

}  // namespace retrasyn
