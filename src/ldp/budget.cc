#include "ldp/budget.h"

#include <algorithm>

#include "common/logging.h"

namespace retrasyn {

BudgetLedger::BudgetLedger(int window, double total)
    : window_(window), total_(total) {
  RETRASYN_CHECK(window >= 1);
  RETRASYN_CHECK(total > 0.0);
}

void BudgetLedger::Record(int64_t t, double epsilon) {
  RETRASYN_CHECK(t >= last_t_);
  last_t_ = t;
  EvictBefore(t - window_ + 1);
  if (epsilon > 0.0) {
    spends_.emplace_back(t, epsilon);
    window_sum_ += epsilon;
  }
  max_window_spend_ = std::max(max_window_spend_, window_sum_);
}

double BudgetLedger::SpentInWindow(int64_t t) const {
  double sum = 0.0;
  for (const auto& [ts, eps] : spends_) {
    if (ts >= t - window_ + 1 && ts <= t) sum += eps;
  }
  return sum;
}

double BudgetLedger::RemainingAt(int64_t t) const {
  double spent = 0.0;
  for (const auto& [ts, eps] : spends_) {
    if (ts >= t - window_ + 1 && ts <= t - 1) spent += eps;
  }
  return std::max(0.0, total_ - spent);
}

void BudgetLedger::EvictBefore(int64_t t_min) {
  while (!spends_.empty() && spends_.front().first < t_min) {
    window_sum_ -= spends_.front().second;
    spends_.pop_front();
  }
}

bool ReportWindowTracker::RecordReport(uint32_t user, int64_t t) {
  ++num_reports_;
  if (user >= last_report_.size()) {
    // Geometric growth keeps the amortized cost per new user O(1).
    last_report_.resize(std::max<size_t>(size_t{user} + 1,
                                         last_report_.size() * 2),
                        kNeverReported);
  }
  int64_t& last = last_report_[user];
  const bool ok = last == kNeverReported || t - last >= window_;
  if (!ok) violation_ = true;
  last = t;
  return ok;
}

std::vector<std::pair<uint64_t, int64_t>> ReportWindowTracker::last_reports()
    const {
  std::vector<std::pair<uint64_t, int64_t>> out;
  for (size_t user = 0; user < last_report_.size(); ++user) {
    if (last_report_[user] != kNeverReported) {
      out.emplace_back(user, last_report_[user]);
    }
  }
  return out;
}

void ReportWindowTracker::Restore(
    const std::vector<std::pair<uint64_t, int64_t>>& last_reports,
    bool violation, int64_t num_reports) {
  size_t size = 0;
  for (const auto& entry : last_reports) {
    size = std::max<size_t>(size, entry.first + 1);
  }
  last_report_.assign(size, kNeverReported);
  for (const auto& [user, t] : last_reports) last_report_[user] = t;
  violation_ = violation;
  num_reports_ = num_reports;
}

}  // namespace retrasyn
