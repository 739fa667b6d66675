// Reading side of the event journal, in two passes.
//
// JournalReader::ScanDir is the framing pass: it reads every segment in
// order through one fixed-size buffer, checks the framing, checksum and
// decoding of every record, and keeps only per-segment metadata (round
// range, valid size, last record). Its memory does not grow with the
// journal. JournalCursor is the decode pass: opened on a scan at a resume
// round, it seeks to the segment that holds that round and yields the
// journal one round at a time.
//
// Recovery contract (docs/durability.md):
//  * Segments must be contiguously numbered; a missing segment is data loss
//    and fails the scan (kIOError).
//  * Inside every segment but the last, each record must decode cleanly and
//    the segment must end exactly on a record boundary — the writer rotates
//    only after durable round boundaries, so anything else is corruption.
//  * In the LAST segment, the first incomplete record, zero or implausible
//    length, or checksum mismatch marks the torn tail: records before it are
//    kept, the scan reports the valid byte prefix (`valid_tail_size`) so the
//    caller can physically truncate the file, and everything after is
//    discarded. A segment header cut short counts as torn too.
//  * A record that passes its checksum but does not decode (an unknown type,
//    a short payload, trailing bytes), or a complete segment header with a
//    bad magic or version, is never torn: it fails the scan (kIOError) in
//    any segment, with the file left as it is.
//
// An empty or missing directory scans to zero records (a fresh deployment).

#ifndef RETRASYN_JOURNAL_JOURNAL_READER_H_
#define RETRASYN_JOURNAL_JOURNAL_READER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "common/status.h"
#include "journal/event_codec.h"

namespace retrasyn {

/// \brief One scanned segment. Rounds are absolute closed-round counts
/// (base_round + every boundary decoded before that point). The checkpoint
/// manager seeds its compaction bookkeeping from these, and a JournalCursor
/// seeks by them.
struct ScannedSegment {
  uint64_t index = 0;
  int64_t start_round = 0;  ///< closed rounds before its first record
  int64_t end_round = 0;    ///< closed rounds after its last record
  /// Byte length of the segment's valid prefix: the file size, or the torn
  /// tail's truncation point.
  int64_t valid_size = 0;
  uint64_t records = 0;
  /// Type of the last record; meaningful only when records > 0. A segment
  /// whose last record is not a kTick holds events of round end_round.
  JournalEventType last_record_type = JournalEventType::kTick;
};

/// \brief The result of scanning a journal directory.
struct JournalScan {
  std::string dir;
  uint64_t num_segments = 0;
  uint64_t records = 0;  ///< every valid record, boundaries included
  /// Absolute closed rounds summarized by a compacted-away prefix (from the
  /// BASE file; 0 when the journal was never compacted). The surviving
  /// records continue round numbering from here.
  int64_t base_round = 0;
  /// Absolute closed rounds at the end of the valid journal.
  int64_t end_round = 0;
  /// The surviving segments in index order. Empty for an empty/missing
  /// journal.
  std::vector<ScannedSegment> segments;
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

  /// Path of the segment holding the final valid record, the byte offset
  /// where that record starts, and its type. Sharded recovery's handle for
  /// dropping a trailing round boundary that a sibling shard's journal
  /// never got (a crash or I/O failure mid-boundary): truncating
  /// `last_record_segment` to `last_record_offset` removes exactly that
  /// record. Meaningful only when `records` > 0.
  std::string last_record_segment;
  int64_t last_record_offset = 0;
  JournalEventType last_record_type = JournalEventType::kTick;
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

/// \brief Streams the records of a scanned journal one round at a time,
/// through one fixed-size read buffer. Reads only each segment's valid
/// prefix, so it never sees a torn tail. The scan's segments must not
/// change while the cursor reads them; a record that no longer decodes
/// fails ReadRound with kIOError.
class JournalCursor {
 public:
  /// Positions a cursor over \p scan at the first record of round
  /// \p resume_round: opens the first segment that holds a record of that
  /// round or a later one, and skips the rounds before it in there.
  /// A journal that ends before \p resume_round leaves the cursor at its
  /// end. InvalidArgument when \p resume_round lies inside the
  /// compacted-away prefix (below scan.base_round).
  static Result<JournalCursor> Open(const JournalScan& scan,
                                    int64_t resume_round);

  /// Clears \p events and fills it with the next round's events, without
  /// its boundary. \p closed reports whether a kTick closed that round; when
  /// false, \p events holds the open round's trailing events (empty at the
  /// end of the journal), and every later call yields nothing.
  Status ReadRound(std::vector<JournalEvent>* events, bool* closed);

  /// The absolute round the next ReadRound reads.
  int64_t round() const { return round_; }
  /// Records decoded so far, skipped rounds and boundaries included.
  uint64_t records_decoded() const { return records_decoded_; }

 private:
  JournalCursor() = default;

  /// Decodes the next record into \p event; \p has is false at the end of
  /// the journal.
  Status Next(JournalEvent* event, bool* has);

  std::string dir_;
  std::vector<ScannedSegment> segments_;
  size_t next_segment_ = 0;
  SequentialFileReader reader_;
  int64_t round_ = 0;
  uint64_t records_decoded_ = 0;
};

}  // namespace retrasyn

#endif  // RETRASYN_JOURNAL_JOURNAL_READER_H_
