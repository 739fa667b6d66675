// Reads a scanned journal back as the event sequence it was appended as,
// round boundaries included, through the JournalCursor recovery uses.

#ifndef RETRASYN_TESTS_TESTING_JOURNAL_EVENTS_H_
#define RETRASYN_TESTS_TESTING_JOURNAL_EVENTS_H_

#include <gtest/gtest.h>

#include <vector>

#include "journal/journal_reader.h"

namespace retrasyn {

/// Every valid record of \p scan from its base round on, in append order.
/// A cursor failure is a test failure and ends the sequence there.
inline std::vector<JournalEvent> ReadJournalEvents(const JournalScan& scan) {
  std::vector<JournalEvent> all;
  auto cursor = JournalCursor::Open(scan, scan.base_round);
  EXPECT_TRUE(cursor.ok()) << cursor.status().ToString();
  if (!cursor.ok()) return all;
  std::vector<JournalEvent> round;
  bool closed = true;
  while (closed) {
    const Status st = cursor.value().ReadRound(&round, &closed);
    EXPECT_TRUE(st.ok()) << st.ToString();
    all.insert(all.end(), round.begin(), round.end());
    if (closed) all.push_back(JournalEvent::Tick());
  }
  return all;
}

}  // namespace retrasyn

#endif  // RETRASYN_TESTS_TESTING_JOURNAL_EVENTS_H_
