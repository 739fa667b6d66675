// w-event privacy accounting (paper SII-B, Def. 3).
//
// BudgetLedger tracks the per-timestamp budget spent by a budget-division
// strategy and exposes the sliding-window sum needed both by the allocation
// logic (remaining budget, SIII-E) and by tests asserting that no window of w
// consecutive timestamps ever exceeds the total budget.
//
// For population-division strategies the analogous guarantee is "each user
// reports at most once per window with the full budget"; ReportWindowTracker
// verifies that invariant over user report histories. Users are the engines'
// dense stream indices, so the tracker keeps one int64 last-report time per
// index in a flat vector (a sentinel marks "never reported") instead of a
// hash node per user ever seen.

#ifndef RETRASYN_LDP_BUDGET_H_
#define RETRASYN_LDP_BUDGET_H_

#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

namespace retrasyn {

class BudgetLedger {
 public:
  /// \param window  w, the number of consecutive timestamps protected.
  /// \param total   the overall budget epsilon available per window.
  BudgetLedger(int window, double total);

  int window() const { return window_; }
  double total() const { return total_; }

  /// Records that \p epsilon was spent at timestamp \p t. Timestamps must be
  /// non-decreasing across calls.
  void Record(int64_t t, double epsilon);

  /// Budget spent in the window [t - w + 1, t].
  double SpentInWindow(int64_t t) const;

  /// Budget still available at timestamp \p t:
  /// total - (spend over [t - w + 1, t - 1]).
  double RemainingAt(int64_t t) const;

  /// The largest window-sum observed over the whole recorded history; the
  /// w-event guarantee holds iff this never exceeds total() (+ float slack).
  double MaxWindowSpend() const { return max_window_spend_; }

  // --- Checkpoint state ----------------------------------------------------

  const std::deque<std::pair<int64_t, double>>& spends() const {
    return spends_;
  }
  double window_sum() const { return window_sum_; }
  int64_t last_t() const { return last_t_; }

  void Restore(std::deque<std::pair<int64_t, double>> spends,
               double window_sum, int64_t last_t, double max_window_spend) {
    spends_ = std::move(spends);
    window_sum_ = window_sum;
    last_t_ = last_t;
    max_window_spend_ = max_window_spend;
  }

 private:
  void EvictBefore(int64_t t_min);

  int window_;
  double total_;
  std::deque<std::pair<int64_t, double>> spends_;  // (timestamp, epsilon)
  double window_sum_ = 0.0;                        // sum over current deque
  int64_t last_t_ = INT64_MIN;
  double max_window_spend_ = 0.0;
};

/// \brief Verifies the population-division discipline: a user may report at
/// most once within any w consecutive timestamps.
class ReportWindowTracker {
 public:
  explicit ReportWindowTracker(int window) : window_(window) {}

  /// Records that user \p user reported at time \p t. Returns false (and
  /// flags a violation) if the user already reported within the last w
  /// timestamps. \p user is a dense stream index: the tracker grows to
  /// cover it, so callers pass indices their own dense bookkeeping covers.
  bool RecordReport(uint32_t user, int64_t t);

  bool HasViolation() const { return violation_; }
  int64_t num_reports() const { return num_reports_; }

  // --- Checkpoint state ----------------------------------------------------

  /// Every user that ever reported with its last report time, in user order.
  std::vector<std::pair<uint64_t, int64_t>> last_reports() const;

  /// Replaces the state. Every user in \p last_reports must already be
  /// bounded by the caller (it sizes the dense vector).
  void Restore(const std::vector<std::pair<uint64_t, int64_t>>& last_reports,
               bool violation, int64_t num_reports);

 private:
  static constexpr int64_t kNeverReported =
      std::numeric_limits<int64_t>::min();

  int window_;
  std::vector<int64_t> last_report_;  ///< per user; kNeverReported if none
  bool violation_ = false;
  int64_t num_reports_ = 0;
};

}  // namespace retrasyn

#endif  // RETRASYN_LDP_BUDGET_H_
