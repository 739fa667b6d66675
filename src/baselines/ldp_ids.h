// LDP-IDS baselines (Ren et al., SIGMOD 2022), adapted to trajectory streams
// exactly as the paper's experimental section describes (SV-A "Baselines"):
// the two-phase private mechanism (per-timestamp dissimilarity estimation +
// publish-or-approximate decision) collects users' movement transition
// states, builds the same Markov mobility model, and generates new points
// with the same synthesizer — but without entering/quitting modeling and
// without size adjustment.
//
// Four strategies:
//  * LBD — budget distribution: eps/2 reserved for dissimilarity (eps/2w per
//          timestamp); publications spend half of the remaining publication
//          budget in the window (exponential decay).
//  * LBA — budget absorption: uniform eps/2w publication allowances;
//          allowances of approximated timestamps are absorbed by the next
//          publication, which then nullifies an equal number of subsequent
//          allowances (Kellaris et al.'s budget absorption discipline).
//  * LPD / LPA — the population-division analogues: user counts take the
//          role of budget and every report uses the full eps.
//
// The publish/approximate rule follows LDP-IDS: publish when the (unbiased)
// estimated dissimilarity between the fresh statistics and the last release
// exceeds the variance a publication with the candidate budget/users would
// introduce. All dimensions share one global decision — precisely the
// coarseness RetraSyn's per-state DMU improves upon.

#ifndef RETRASYN_BASELINES_LDP_IDS_H_
#define RETRASYN_BASELINES_LDP_IDS_H_

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/mobility_model.h"
#include "core/synthesizer.h"
#include "geo/state_space.h"
#include "ldp/aggregate.h"
#include "ldp/budget.h"

namespace retrasyn {

enum class LdpIdsMethod { kLBD, kLBA, kLPD, kLPA };

const char* LdpIdsMethodName(LdpIdsMethod method);

struct LdpIdsConfig {
  double epsilon = 1.0;
  int window = 20;
  LdpIdsMethod method = LdpIdsMethod::kLPD;
  CollectionMode collection_mode = CollectionMode::kAggregateSim;
  /// Same consistency post-processing as the RetraSyn engine, for a fair
  /// comparison (every reporter holds exactly one movement state, so the
  /// movement-domain frequencies also sum to 1).
  Postprocess postprocess = Postprocess::kClip;
  uint64_t seed = 1;
};

class LdpIdsEngine : public StreamReleaseEngine {
 public:
  LdpIdsEngine(const StateSpace& states, const LdpIdsConfig& config);

  void Observe(const TimestampBatch& batch) override;
  CellStreamSet SnapshotRelease(int64_t num_timestamps) const override;
  std::vector<uint32_t> LiveDensity() const override;
  std::string name() const override;

  const LdpIdsConfig& config() const { return config_; }
  const BudgetLedger& budget_ledger() const { return ledger_; }
  const ReportWindowTracker& report_tracker() const { return tracker_; }
  /// Number of timestamps on which a fresh publication happened.
  int64_t num_publications() const { return num_publications_; }

 private:
  bool IsBudgetDivision() const {
    return config_.method == LdpIdsMethod::kLBD ||
           config_.method == LdpIdsMethod::kLBA;
  }
  bool IsDistribution() const {
    return config_.method == LdpIdsMethod::kLBD ||
           config_.method == LdpIdsMethod::kLPD;
  }

  /// Registers arrivals / recycles / returns indices of eligible movement
  /// observations (population division status discipline).
  std::vector<uint32_t> PrepareEligible(const TimestampBatch& batch);

  /// Unbiased mean-squared deviation between fresh estimates and the current
  /// release, floored at zero.
  double EstimateDissimilarity(const std::vector<double>& fresh,
                               double fresh_variance) const;

  void PublishRelease(const std::vector<double>& estimates);

  const StateSpace* states_;
  LdpIdsConfig config_;
  Rng rng_;
  TransitionCollector collector_;  ///< movement-state domain only
  GlobalMobilityModel model_;
  Synthesizer synthesizer_;
  BudgetLedger ledger_;
  ReportWindowTracker tracker_;

  /// Last released movement-state frequencies (the "release" the dissimilarity
  /// phase compares against).
  std::vector<double> release_;
  bool has_release_ = false;
  int64_t num_publications_ = 0;

  // Budget-division bookkeeping.
  std::deque<std::pair<int64_t, double>> pub_spends_;   // LBD window history
  double lba_bank_ = 0.0;                               // LBA absorbed budget
  int64_t lba_nullified_until_ = -1;                    // LBA downtime end

  // Population-division bookkeeping.
  enum class UserStatus : uint8_t { kActive, kInactive, kQuitted };
  std::unordered_map<uint32_t, UserStatus> status_;
  std::deque<std::pair<int64_t, std::vector<uint32_t>>> reported_at_;
  std::deque<std::pair<int64_t, uint64_t>> pub_users_;  // LPD window history
  double lpa_bank_ = 0.0;                               // LPA absorbed users
  int64_t lpa_accrual_count_ = 0;  // allowances banked since last publication
  int64_t lpa_nullified_until_ = -1;
};

}  // namespace retrasyn

#endif  // RETRASYN_BASELINES_LDP_IDS_H_
