#include "baselines/ldp_ids.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "ldp/frequency_oracle.h"

namespace retrasyn {

const char* LdpIdsMethodName(LdpIdsMethod method) {
  switch (method) {
    case LdpIdsMethod::kLBD:
      return "LBD";
    case LdpIdsMethod::kLBA:
      return "LBA";
    case LdpIdsMethod::kLPD:
      return "LPD";
    case LdpIdsMethod::kLPA:
      return "LPA";
  }
  return "?";
}

LdpIdsEngine::LdpIdsEngine(const StateSpace& states,
                           const LdpIdsConfig& config)
    : states_(&states),
      config_(config),
      rng_(config.seed),
      collector_(states.num_move_states(), config.collection_mode),
      model_(states),
      // Baselines never terminate synthetic streams and keep the population
      // frozen at its initial size (SV-A: "without considering the
      // entering/quitting of users").
      synthesizer_(states, SynthesizerConfig{/*lambda=*/1.0, /*use_quit=*/false,
                                             /*use_size_adjustment=*/false,
                                             /*random_init=*/true}),
      ledger_(config.window, config.epsilon),
      tracker_(config.window),
      release_(states.num_move_states(), 0.0) {
  RETRASYN_CHECK(config.epsilon > 0.0);
  RETRASYN_CHECK(config.window >= 1);
}

std::string LdpIdsEngine::name() const {
  return LdpIdsMethodName(config_.method);
}

double LdpIdsEngine::EstimateDissimilarity(const std::vector<double>& fresh,
                                           double fresh_variance) const {
  RETRASYN_DCHECK(fresh.size() == release_.size());
  double mse = 0.0;
  for (uint32_t s = 0; s < fresh.size(); ++s) {
    const double d = fresh[s] - release_[s];
    mse += d * d;
  }
  mse /= static_cast<double>(fresh.size());
  // The fresh estimate itself is noisy; subtract its variance so the
  // dissimilarity is an (approximately) unbiased estimate of the true
  // mean-squared deviation.
  return std::max(0.0, mse - fresh_variance);
}

void LdpIdsEngine::PublishRelease(const std::vector<double>& estimates) {
  RETRASYN_DCHECK(estimates.size() == release_.size());
  release_ = estimates;
  // Pad movement-domain estimates to the full state space (enter/quit mass
  // stays zero: the baselines never observe those states).
  std::vector<double> padded(states_->size(), 0.0);
  std::copy(estimates.begin(), estimates.end(), padded.begin());
  model_.ReplaceAll(padded);
  has_release_ = true;
  ++num_publications_;
}

std::vector<uint32_t> LdpIdsEngine::PrepareEligible(
    const TimestampBatch& batch) {
  const int64_t t = batch.t;
  for (const UserObservation& obs : batch.observations) {
    if (obs.is_enter) {
      status_[obs.user_index] = UserStatus::kActive;
    } else if (obs.is_quit) {
      status_[obs.user_index] = UserStatus::kQuitted;
    }
  }
  while (!reported_at_.empty() &&
         reported_at_.front().first <= t - config_.window) {
    for (uint32_t user : reported_at_.front().second) {
      auto it = status_.find(user);
      if (it != status_.end() && it->second == UserStatus::kInactive) {
        it->second = UserStatus::kActive;
      }
    }
    reported_at_.pop_front();
  }
  std::vector<uint32_t> eligible;
  eligible.reserve(batch.observations.size());
  for (uint32_t i = 0; i < batch.observations.size(); ++i) {
    const UserObservation& obs = batch.observations[i];
    if (obs.is_enter || obs.is_quit) continue;  // movement states only
    auto it = status_.find(obs.user_index);
    if (it == status_.end() || it->second != UserStatus::kActive) continue;
    eligible.push_back(i);
  }
  return eligible;
}

void LdpIdsEngine::Observe(const TimestampBatch& batch) {
  const int64_t t = batch.t;
  const int w = config_.window;
  const double eps = config_.epsilon;

  if (IsBudgetDivision()) {
    // Every movement observation reports in both phases (budget division
    // splits epsilon, not users).
    std::vector<StateId> move_states;
    move_states.reserve(batch.observations.size());
    for (const UserObservation& obs : batch.observations) {
      if (!obs.is_enter && !obs.is_quit) move_states.push_back(obs.state);
    }
    const double eps1 = eps / (2.0 * w);
    double spent = 0.0;
    CollectionResult dis_result;
    if (!move_states.empty()) {
      dis_result = collector_.Collect(move_states, eps1, rng_);
      ApplyPostprocess(config_.postprocess, dis_result.frequencies, 1.0);
      spent += eps1;
    }

    // Candidate publication budget.
    double eps2 = 0.0;
    if (IsDistribution()) {  // LBD
      while (!pub_spends_.empty() &&
             pub_spends_.front().first < t - w + 1) {
        pub_spends_.pop_front();
      }
      double pub_in_window = 0.0;
      for (const auto& [ts, e] : pub_spends_) pub_in_window += e;
      eps2 = (eps / 2.0 - pub_in_window) / 2.0;
    } else {  // LBA
      if (t > lba_nullified_until_) lba_bank_ += eps / (2.0 * w);
      eps2 = std::min(lba_bank_, eps / 2.0);
    }

    bool publish = false;
    // Publications below this budget would be numerically explosive noise
    // (see kMinRoundEpsilon in engine.cc); skip and let allowances recover.
    if (!move_states.empty() && eps2 >= 1e-4) {
      if (!has_release_) {
        publish = true;  // nothing to approximate from yet
      } else {
        const double dis = EstimateDissimilarity(
            dis_result.frequencies,
            OueFrequencyVariance(eps1, dis_result.num_reports));
        publish = dis > OueFrequencyVariance(eps2, move_states.size());
      }
    }
    if (publish) {
      CollectionResult pub = collector_.Collect(move_states, eps2, rng_);
      ApplyPostprocess(config_.postprocess, pub.frequencies, 1.0);
      PublishRelease(pub.frequencies);
      spent += eps2;
      if (IsDistribution()) {
        pub_spends_.emplace_back(t, eps2);
      } else {
        const double unit = eps / (2.0 * w);
        const int64_t absorbed =
            std::max<int64_t>(1, std::llround(lba_bank_ / unit));
        lba_bank_ = 0.0;
        // Absorbing k allowances nullifies the next k - 1 timestamps.
        lba_nullified_until_ = t + absorbed - 1;
      }
    }
    ledger_.Record(t, spent);
  } else {
    // Population division: dissimilarity and publication consume disjoint
    // user samples, each reporting once per window with the full epsilon.
    std::vector<uint32_t> eligible = PrepareEligible(batch);
    std::vector<uint32_t> reported_users;

    // Phase 1: dissimilarity sample (|eligible| / 2w users).
    const uint64_t m1 = std::min<uint64_t>(
        eligible.size(),
        std::max<uint64_t>(
            eligible.empty() ? 0 : 1,
            static_cast<uint64_t>(std::llround(
                static_cast<double>(eligible.size()) / (2.0 * w)))));
    std::vector<uint32_t> dis_members;
    if (m1 > 0) {
      std::vector<uint32_t> picks = rng_.SampleWithoutReplacement(
          static_cast<uint32_t>(eligible.size()), static_cast<uint32_t>(m1));
      // Move picked entries to dis_members; keep the rest in `eligible`.
      std::sort(picks.rbegin(), picks.rend());
      for (uint32_t p : picks) {
        dis_members.push_back(eligible[p]);
        eligible[p] = eligible.back();
        eligible.pop_back();
      }
    }
    CollectionResult dis_result;
    if (!dis_members.empty()) {
      std::vector<StateId> dis_states;
      dis_states.reserve(dis_members.size());
      for (uint32_t i : dis_members) {
        dis_states.push_back(batch.observations[i].state);
        reported_users.push_back(batch.observations[i].user_index);
      }
      dis_result = collector_.Collect(dis_states, eps, rng_);
      ApplyPostprocess(config_.postprocess, dis_result.frequencies, 1.0);
    }

    // Phase 2: candidate publication sample size.
    const double total_eligible =
        static_cast<double>(eligible.size() + dis_members.size());
    uint64_t m2 = 0;
    if (IsDistribution()) {  // LPD
      while (!pub_users_.empty() && pub_users_.front().first < t - w + 1) {
        pub_users_.pop_front();
      }
      uint64_t consumed = 0;
      for (const auto& [ts, m] : pub_users_) consumed += m;
      const double remaining = total_eligible / 2.0 - consumed;
      m2 = remaining > 0.0 ? static_cast<uint64_t>(remaining / 2.0) : 0;
    } else {  // LPA
      if (t > lpa_nullified_until_) {
        lpa_bank_ += total_eligible / (2.0 * w);
        ++lpa_accrual_count_;
      }
      m2 = static_cast<uint64_t>(lpa_bank_);
    }
    m2 = std::min<uint64_t>(m2, eligible.size());

    bool publish = false;
    if (m2 >= 1) {
      if (!has_release_) {
        publish = true;
      } else if (dis_result.num_reports > 0) {
        const double dis = EstimateDissimilarity(
            dis_result.frequencies,
            OueFrequencyVariance(eps, dis_result.num_reports));
        publish = dis > OueFrequencyVariance(eps, m2);
      }
    }
    if (publish) {
      std::vector<uint32_t> picks = rng_.SampleWithoutReplacement(
          static_cast<uint32_t>(eligible.size()), static_cast<uint32_t>(m2));
      std::vector<StateId> pub_states;
      pub_states.reserve(picks.size());
      for (uint32_t p : picks) {
        pub_states.push_back(batch.observations[eligible[p]].state);
        reported_users.push_back(batch.observations[eligible[p]].user_index);
      }
      CollectionResult pub = collector_.Collect(pub_states, eps, rng_);
      ApplyPostprocess(config_.postprocess, pub.frequencies, 1.0);
      PublishRelease(pub.frequencies);
      if (IsDistribution()) {
        pub_users_.emplace_back(t, m2);
      } else {
        const int64_t absorbed = std::max<int64_t>(1, lpa_accrual_count_);
        lpa_bank_ = 0.0;
        lpa_accrual_count_ = 0;
        lpa_nullified_until_ = t + absorbed - 1;
      }
    }

    // Status commit: all reporters become inactive until recycled.
    for (uint32_t user : reported_users) {
      status_[user] = UserStatus::kInactive;
      tracker_.RecordReport(user, t);
    }
    if (!reported_users.empty()) {
      reported_at_.emplace_back(t, std::move(reported_users));
    }
    ledger_.Record(t, 0.0);
  }

  // Synthesis: identical Markov generation, frozen population.
  if (model_.initialized()) {
    if (!synthesizer_.initialized()) {
      synthesizer_.Initialize(model_, batch.num_active, t, rng_);
    } else {
      synthesizer_.Step(model_, batch.num_active, t, rng_);
    }
  }
}

CellStreamSet LdpIdsEngine::SnapshotRelease(int64_t num_timestamps) const {
  return synthesizer_.Snapshot(num_timestamps);
}

std::vector<uint32_t> LdpIdsEngine::LiveDensity() const {
  return synthesizer_.LiveDensity();  // all zeros before initialization
}

}  // namespace retrasyn
