#include "ldp/budget.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

namespace retrasyn {
namespace {

TEST(BudgetLedgerTest, WindowSumAndRemaining) {
  BudgetLedger ledger(/*window=*/3, /*total=*/1.0);
  ledger.Record(0, 0.3);
  EXPECT_NEAR(ledger.SpentInWindow(0), 0.3, 1e-12);
  EXPECT_NEAR(ledger.RemainingAt(1), 0.7, 1e-12);
  ledger.Record(1, 0.4);
  EXPECT_NEAR(ledger.SpentInWindow(1), 0.7, 1e-12);
  EXPECT_NEAR(ledger.RemainingAt(2), 0.3, 1e-12);
  ledger.Record(2, 0.3);
  EXPECT_NEAR(ledger.SpentInWindow(2), 1.0, 1e-12);
  // At t=3, the spend at t=0 leaves the window.
  EXPECT_NEAR(ledger.RemainingAt(3), 1.0 - 0.4 - 0.3, 1e-12);
}

TEST(BudgetLedgerTest, MaxWindowSpendTracksPeak) {
  BudgetLedger ledger(2, 1.0);
  ledger.Record(0, 0.5);
  ledger.Record(1, 0.5);
  ledger.Record(2, 0.1);
  ledger.Record(3, 0.2);
  EXPECT_NEAR(ledger.MaxWindowSpend(), 1.0, 1e-12);
}

TEST(BudgetLedgerTest, SkippedTimestampsEvictCorrectly) {
  BudgetLedger ledger(3, 1.0);
  ledger.Record(0, 0.6);
  // Jump ahead: nothing recorded at 1, 2.
  ledger.Record(5, 0.2);
  EXPECT_NEAR(ledger.SpentInWindow(5), 0.2, 1e-12);
  EXPECT_NEAR(ledger.RemainingAt(6), 0.8, 1e-12);
}

TEST(BudgetLedgerTest, ZeroSpendAdvancesClockOnly) {
  BudgetLedger ledger(4, 2.0);
  ledger.Record(0, 0.5);
  ledger.Record(1, 0.0);
  ledger.Record(2, 0.0);
  EXPECT_NEAR(ledger.SpentInWindow(2), 0.5, 1e-12);
  EXPECT_NEAR(ledger.MaxWindowSpend(), 0.5, 1e-12);
}

TEST(BudgetLedgerTest, RemainingNeverNegative) {
  BudgetLedger ledger(2, 1.0);
  ledger.Record(0, 0.3);
  ledger.Record(1, 1.2);  // over-spend recorded; RemainingAt floors at 0
  EXPECT_DOUBLE_EQ(ledger.RemainingAt(2), 0.0);
}

TEST(BudgetLedgerTest, UniformAllocationSaturatesWindowExactly) {
  const int w = 10;
  const double eps = 1.0;
  BudgetLedger ledger(w, eps);
  for (int64_t t = 0; t < 100; ++t) {
    ledger.Record(t, eps / w);
  }
  EXPECT_NEAR(ledger.MaxWindowSpend(), eps, 1e-9);
}

TEST(BudgetLedgerTest, ExponentialHalvingStaysWithinBudget) {
  // The LBD-style policy: spend half the remaining budget each timestamp.
  const int w = 5;
  const double eps = 1.0;
  BudgetLedger ledger(w, eps);
  for (int64_t t = 0; t < 50; ++t) {
    const double spend = ledger.RemainingAt(t) / 2.0;
    ledger.Record(t, spend);
  }
  EXPECT_LE(ledger.MaxWindowSpend(), eps + 1e-9);
}

TEST(ReportWindowTrackerTest, DetectsDoubleReportInWindow) {
  ReportWindowTracker tracker(5);
  EXPECT_TRUE(tracker.RecordReport(1, 0));
  EXPECT_FALSE(tracker.RecordReport(1, 4));  // within the window
  EXPECT_TRUE(tracker.HasViolation());
}

TEST(ReportWindowTrackerTest, AllowsReportAfterWindow) {
  ReportWindowTracker tracker(5);
  EXPECT_TRUE(tracker.RecordReport(1, 0));
  EXPECT_TRUE(tracker.RecordReport(1, 5));
  EXPECT_TRUE(tracker.RecordReport(1, 10));
  EXPECT_FALSE(tracker.HasViolation());
  EXPECT_EQ(tracker.num_reports(), 3);
}

TEST(ReportWindowTrackerTest, UsersIndependent) {
  ReportWindowTracker tracker(10);
  EXPECT_TRUE(tracker.RecordReport(1, 0));
  EXPECT_TRUE(tracker.RecordReport(2, 0));
  EXPECT_TRUE(tracker.RecordReport(3, 3));
  EXPECT_FALSE(tracker.HasViolation());
}

TEST(ReportWindowTrackerTest, LastReportsInUserOrderAndRestoreRoundTrips) {
  ReportWindowTracker tracker(4);
  EXPECT_TRUE(tracker.RecordReport(9, 1));
  EXPECT_TRUE(tracker.RecordReport(0, 2));
  EXPECT_TRUE(tracker.RecordReport(4, 3));
  EXPECT_TRUE(tracker.RecordReport(9, 6));
  const std::vector<std::pair<uint64_t, int64_t>> expected = {
      {0, 2}, {4, 3}, {9, 6}};
  EXPECT_EQ(tracker.last_reports(), expected);

  ReportWindowTracker restored(4);
  restored.Restore(tracker.last_reports(), tracker.HasViolation(),
                   tracker.num_reports());
  EXPECT_EQ(restored.last_reports(), expected);
  EXPECT_EQ(restored.num_reports(), 4);
  // The restored history still polices the window, and unseen users (inside
  // or beyond the restored range) start clean.
  EXPECT_FALSE(restored.RecordReport(4, 5));
  EXPECT_TRUE(restored.HasViolation());
  EXPECT_TRUE(restored.RecordReport(1, 5));
  EXPECT_TRUE(restored.RecordReport(100, 5));
}

}  // namespace
}  // namespace retrasyn
