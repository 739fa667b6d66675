// Scanning side of the event journal: reads every segment in order and
// returns the decoded event sequence, tolerating a torn tail in the final
// segment only.
//
// Recovery contract (docs/durability.md):
//  * Segments must be contiguously numbered; a missing segment is data loss
//    and fails the scan (kIOError).
//  * Inside every segment but the last, each record must decode cleanly and
//    the segment must end exactly on a record boundary — the writer rotates
//    only after durable round boundaries, so anything else is corruption.
//  * In the LAST segment, the first incomplete record, checksum mismatch, or
//    well-framed garbage marks the torn tail: events before it are kept, the
//    scan reports the valid byte prefix (`valid_tail_size`) so the caller can
//    physically truncate the file, and everything after is discarded. A
//    segment header cut short counts as torn too; a complete header with a
//    bad magic or version does not, and fails the scan (kIOError) with the
//    file left as it is.
//
// An empty or missing directory scans to zero events (a fresh deployment).

#ifndef RETRASYN_JOURNAL_JOURNAL_READER_H_
#define RETRASYN_JOURNAL_JOURNAL_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "journal/event_codec.h"

namespace retrasyn {

/// \brief One scanned segment and the absolute closed-round count at its
/// end (base_round + every boundary decoded up to and including it). The
/// checkpoint manager seeds its compaction bookkeeping from these.
struct ScannedSegment {
  uint64_t index = 0;
  int64_t end_round = 0;
};

/// \brief The result of scanning a journal directory.
struct JournalScan {
  std::vector<JournalEvent> events;  ///< decoded, in append order
  uint64_t num_segments = 0;
  uint64_t bytes_scanned = 0;
  /// Absolute closed rounds summarized by a compacted-away prefix (from the
  /// BASE file; 0 when the journal was never compacted). The decoded events
  /// continue round numbering from here.
  int64_t base_round = 0;
  /// The surviving segments in index order, each with its absolute end
  /// round. Empty for an empty/missing journal.
  std::vector<ScannedSegment> segments;
  /// Orphaned `*.tmp` files (a crash mid atomic write) and segments below
  /// the BASE that a crashed compaction left behind, deleted by the scan.
  uint64_t files_cleaned = 0;
  /// Deployment fingerprint from the segment headers (all segments must
  /// agree; mismatching segments fail the scan). Meaningless unless
  /// has_fingerprint — a journal of only empty segments carries none.
  uint64_t fingerprint = 0;
  bool has_fingerprint = false;

  /// True when the last segment ended in a torn/corrupt tail that was
  /// logically truncated. `torn_segment` is that file's path and
  /// `valid_tail_size` the byte length of its valid prefix — truncating the
  /// file to that size makes the on-disk journal fully clean again.
  bool torn = false;
  std::string torn_segment;
  int64_t valid_tail_size = 0;

  /// Path of the segment holding the final decoded record and the byte
  /// offset where that record starts. Sharded recovery's handle for
  /// dropping a trailing round boundary that a sibling shard's journal
  /// never got (a crash or I/O failure mid-boundary): truncating
  /// `last_record_segment` to `last_record_offset` removes exactly that
  /// record. Meaningful only when `events` is non-empty.
  std::string last_record_segment;
  int64_t last_record_offset = 0;
};

class JournalReader {
 public:
  /// Scans every segment under \p dir. See the header comment for the
  /// tolerance rules. Also performs the journal's crash janitor duties:
  /// deletes orphaned `*.tmp` files (an atomic write that never renamed)
  /// and segments a durable BASE file has declared dead (a compaction that
  /// crashed between its BASE write and its unlinks). Callers that mutate
  /// the journal afterwards must hold the `<dir>/LOCK` before scanning.
  static Result<JournalScan> ScanDir(const std::string& dir);
};

}  // namespace retrasyn

#endif  // RETRASYN_JOURNAL_JOURNAL_READER_H_
