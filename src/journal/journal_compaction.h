// Journal compaction: deleting the prefix of segments a checkpoint has made
// redundant, without ever mistaking the deletion for data loss.
//
// The problem: recovery treats a missing segment as corruption (a gap in the
// contiguous numbering fails the scan). Compaction *wants* to remove
// segments, so it must first leave a durable declaration of what it removed.
// That declaration is the `BASE` file:
//
//   +--------+---------+------------------------+------------+----------+
//   | magic  | version | first_surviving_index  | base_round | CRC32C   |
//   | 8 B    | 1 B     | 8 B, little-endian     | 8 B, LE    | 4 B, LE  |
//   +--------+---------+------------------------+------------+----------+
//
// `first_surviving_index` is the lowest segment index compaction kept;
// `base_round` is the absolute number of closed rounds summarized by the
// deleted prefix — replay of the surviving suffix starts counting rounds
// from there. Fields are encoded with common/coding.h. BASE is written
// atomically by WriteFileAtomically (tmp file + rename + directory
// fsync) *before* any segment is unlinked, so every crash point is safe:
//
//   * crash before the rename: an orphaned `*.tmp` the scanner removes;
//   * crash after the rename, before the unlinks: segments below the base
//     survive on disk but are declared dead — the scanner deletes them;
//   * crash mid-unlink: same, for whichever subset remains.
//
// RetireJournalSegments is the one-call compaction step the checkpoint
// manager uses; Read/WriteJournalBase are its (test-visible) halves.

#ifndef RETRASYN_JOURNAL_JOURNAL_COMPACTION_H_
#define RETRASYN_JOURNAL_JOURNAL_COMPACTION_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace retrasyn {

/// The durable "segments below this never existed" declaration.
struct JournalBase {
  /// Lowest segment index that still holds replayable data.
  uint64_t first_surviving_index = 0;
  /// Absolute closed-round count summarized by the deleted prefix; replay of
  /// the surviving segments resumes round numbering here.
  int64_t base_round = 0;
};

/// The BASE file name; never parsed as a segment.
inline constexpr char kJournalBaseFileName[] = "BASE";
/// 8-byte magic + 1-byte version the BASE file starts with.
inline constexpr char kJournalBaseMagic[8] = {'R', 'S', 'Y', 'N',
                                              'B', 'A', 'S', 'E'};
inline constexpr uint8_t kJournalBaseFormatVersion = 1;
/// magic + version + first_surviving_index + base_round + CRC32C.
inline constexpr size_t kJournalBaseFileSize =
    sizeof(kJournalBaseMagic) + 1 + 8 + 8 + 4;

/// \brief Atomically replaces `<dir>/BASE` (tmp + rename + dir fsync).
Status WriteJournalBase(const std::string& dir, const JournalBase& base);

/// \brief Reads `<dir>/BASE`. kNotFound when the journal has never been
/// compacted; kIOError on a truncated or checksum-corrupt file.
Result<JournalBase> ReadJournalBase(const std::string& dir);

/// \brief Retires every segment below \p first_surviving_index: durably
/// writes BASE first, then unlinks the dead segments and fsyncs the
/// directory. \p base_round is the absolute closed-round count at the end of
/// the last deleted segment. Idempotent — re-running after a crash finishes
/// the job.
Status RetireJournalSegments(const std::string& dir,
                             uint64_t first_surviving_index,
                             int64_t base_round);

}  // namespace retrasyn

#endif  // RETRASYN_JOURNAL_JOURNAL_COMPACTION_H_
