#include "journal/journal_reader.h"

#include <algorithm>
#include <utility>

#include "common/file_io.h"
#include "journal/journal_compaction.h"
#include "journal/journal_writer.h"

namespace retrasyn {

namespace {

static_assert(kMaxRecordBytes < SequentialFileReader::kBufferBytes,
              "a whole record must fit in the read buffer");

// Decodes the record at the front of \p reader's window into \p event and
// sets \p used to its length, refilling while the record may run past the
// buffered bytes; \p used stays 0 at a clean end of input. Otherwise returns
// what DecodeRecord said about those bytes, as it would over the whole file.
Status DecodeBuffered(SequentialFileReader* reader, JournalEvent* event,
                      size_t* used) {
  while (true) {
    *used = 0;
    if (reader->size() == 0 && reader->eof()) return Status::OK();
    const Status st =
        DecodeRecord(reader->data(), reader->size(), used, event);
    if (st.code() != StatusCode::kOutOfRange || reader->eof() ||
        reader->size() >= kMaxRecordBytes) {
      return st;
    }
    RETRASYN_RETURN_NOT_OK(reader->Fill());
  }
}

}  // namespace

Result<JournalScan> JournalReader::ScanDir(const std::string& dir) {
  JournalScan scan;
  scan.dir = dir;
  auto names = ListDirectory(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) return scan;
    return names.status();
  }

  // Compaction summary first: it decides which segment files are data and
  // which are corpses a crashed retirement left behind.
  auto base = ReadJournalBase(dir);
  uint64_t first_surviving_index = 0;
  if (base.ok()) {
    first_surviving_index = base.value().first_surviving_index;
    scan.base_round = base.value().base_round;
  } else if (base.status().code() != StatusCode::kNotFound) {
    return base.status();
  }

  std::vector<std::pair<uint64_t, std::string>> segments;
  uint64_t files_cleaned = 0;
  for (const std::string& name : names.value()) {
    // Orphaned tmp files are atomic writes that never renamed; the write
    // they belonged to never happened, so they are garbage under any name.
    if (IsTempFileName(name)) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
      ++files_cleaned;
      continue;
    }
    uint64_t index = 0;
    if (JournalWriter::ParseSegmentFileName(name, &index)) {
      if (index < first_surviving_index) {
        // Durably declared dead by BASE; the unlink just never finished.
        RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
        ++files_cleaned;
        continue;
      }
      segments.emplace_back(index, name);
    }
  }
  if (files_cleaned > 0) RETRASYN_RETURN_NOT_OK(SyncDir(dir));
  std::sort(segments.begin(), segments.end());
  scan.end_round = scan.base_round;
  if (segments.empty()) {
    if (first_surviving_index > 0) {
      // BASE promises a surviving suffix that is not there: the compacted
      // prefix is unreplayable, so this is data loss, not a fresh journal.
      return Status::IOError(
          "journal BASE declares surviving segments from " +
          JournalWriter::SegmentFileName(first_surviving_index) +
          " but the directory holds none");
    }
    return scan;
  }
  if (first_surviving_index > 0 && segments[0].first != first_surviving_index) {
    return Status::IOError(
        "journal BASE declares " +
        JournalWriter::SegmentFileName(first_surviving_index) +
        " as the first surviving segment but the scan found " +
        segments[0].second);
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first != segments[0].first + i) {
      return Status::IOError("journal segment gap: " + segments[i].second +
                             " does not follow " + segments[i - 1].second);
    }
  }

  // Absolute closed-round cursor across segments, continuing from the
  // compacted-away prefix.
  int64_t round_cursor = scan.base_round;
  SequentialFileReader reader;  // the scan's one read buffer
  JournalEvent event;
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool last = (i + 1 == segments.size());
    const std::string path = dir + "/" + segments[i].second;
    ScannedSegment segment;
    segment.index = segments[i].first;
    segment.start_round = round_cursor;
    RETRASYN_RETURN_NOT_OK(reader.Open(path));
    RETRASYN_RETURN_NOT_OK(reader.Fill());
    ++scan.num_segments;

    // A zero-length segment is clean-empty wherever it appears: a crash
    // between file creation and the header flush leaves one behind, tail
    // truncation can legally cut a segment back to nothing, and recovery
    // then continues in a fresh segment *after* it — so an old 0-byte file
    // can end up mid-journal. No acknowledged record can be lost this way:
    // a segment gets bytes before its successor is ever created.
    if (reader.size() == 0) {
      segment.end_round = round_cursor;
      scan.segments.push_back(segment);
      continue;
    }

    size_t header_end = 0;
    uint64_t fingerprint = 0;
    Status st = CheckSegmentHeader(reader.data(), reader.size(), &header_end,
                                   &fingerprint);
    if (!st.ok() && st.code() != StatusCode::kOutOfRange) {
      // A complete header that does not read as one (bad magic, unknown
      // version) is corruption, never a torn write — even in the final
      // segment, where treating it as torn would truncate the whole file.
      return Status::IOError("journal segment " + path +
                             " has an unreadable header: " + st.message());
    }
    if (st.ok()) {
      if (!scan.has_fingerprint) {
        scan.fingerprint = fingerprint;
        scan.has_fingerprint = true;
      } else if (fingerprint != scan.fingerprint) {
        return Status::IOError("journal segment " + path +
                               " carries a different deployment fingerprint "
                               "than its predecessors");
      }
      reader.Consume(header_end);
      int64_t last_record_start = 0;
      while (true) {
        size_t used = 0;
        st = DecodeBuffered(&reader, &event, &used);
        if (st.code() == StatusCode::kInvalidArgument) {
          // A checksum-valid record was written whole: no torn append
          // leaves one, so cutting it off as a torn tail would drop it and
          // every record behind it.
          return Status::IOError(
              "journal segment " + path + " holds a record at offset " +
              std::to_string(reader.offset()) +
              " that passes its checksum but does not decode: " +
              st.message());
        }
        if (!st.ok() || used == 0) break;
        last_record_start = reader.offset();
        reader.Consume(used);
        ++segment.records;
        segment.last_record_type = event.type;
        if (event.type == JournalEventType::kTick) ++round_cursor;
      }
      if (segment.records > 0) {
        scan.records += segment.records;
        scan.last_record_segment = path;
        scan.last_record_offset = last_record_start;
        scan.last_record_type = segment.last_record_type;
      }
    }
    // Everything before the reader's position decoded; a header cut short
    // was never consumed, so it truncates to an empty file.
    segment.valid_size = reader.offset();
    if (!st.ok()) {
      if (!last) {
        return Status::IOError("corrupt journal segment " + path +
                               " before the final one: " + st.message());
      }
      // Torn tail: keep the valid prefix, report the truncation point.
      scan.torn = true;
      scan.torn_segment = path;
      scan.valid_tail_size = segment.valid_size;
    }
    segment.end_round = round_cursor;
    scan.segments.push_back(segment);
  }
  scan.end_round = round_cursor;
  return scan;
}

Result<JournalCursor> JournalCursor::Open(const JournalScan& scan,
                                          int64_t resume_round) {
  if (resume_round < scan.base_round) {
    return Status::InvalidArgument(
        "journal in " + scan.dir + " was compacted past round " +
        std::to_string(scan.base_round) + "; it cannot resume at round " +
        std::to_string(resume_round));
  }
  JournalCursor cursor;
  cursor.dir_ = scan.dir;
  cursor.round_ = scan.end_round;
  // The first segment holding a record of round >= resume_round: one that
  // closes such a round, or one whose trailing events belong to it. Every
  // segment before it lies wholly behind the resume round and is not read.
  for (size_t i = 0; i < scan.segments.size(); ++i) {
    const ScannedSegment& s = scan.segments[i];
    if (s.end_round > resume_round ||
        (s.end_round == resume_round && s.records > 0 &&
         s.last_record_type != JournalEventType::kTick)) {
      cursor.segments_.assign(scan.segments.begin() + i, scan.segments.end());
      cursor.round_ = s.start_round;
      break;
    }
  }
  // A journal that ends before resume_round (a checkpoint newer than its
  // last durable boundary) leaves the cursor at its end.
  JournalEvent event;
  bool has = true;
  while (cursor.round_ < resume_round && has) {
    RETRASYN_RETURN_NOT_OK(cursor.Next(&event, &has));
    if (has && event.type == JournalEventType::kTick) ++cursor.round_;
  }
  return cursor;
}

Status JournalCursor::ReadRound(std::vector<JournalEvent>* events,
                                bool* closed) {
  events->clear();
  *closed = false;
  JournalEvent event;
  while (true) {
    bool has = false;
    RETRASYN_RETURN_NOT_OK(Next(&event, &has));
    if (!has) return Status::OK();
    if (event.type == JournalEventType::kTick) {
      ++round_;
      *closed = true;
      return Status::OK();
    }
    events->push_back(event);
  }
}

Status JournalCursor::Next(JournalEvent* event, bool* has) {
  *has = false;
  while (true) {
    size_t used = 0;
    const Status st = DecodeBuffered(&reader_, event, &used);
    if (!st.ok()) {
      return Status::IOError("journal in " + dir_ + " holds a record at " +
                             "offset " + std::to_string(reader_.offset()) +
                             " of a scanned segment that no longer decodes: " +
                             st.message());
    }
    if (used > 0) {
      reader_.Consume(used);
      ++records_decoded_;
      *has = true;
      return Status::OK();
    }
    // This segment is done; open the next one that holds a record.
    if (next_segment_ == segments_.size()) return Status::OK();
    const ScannedSegment& segment = segments_[next_segment_++];
    if (segment.records == 0) continue;
    const std::string path =
        dir_ + "/" + JournalWriter::SegmentFileName(segment.index);
    RETRASYN_RETURN_NOT_OK(reader_.Open(path, segment.valid_size));
    RETRASYN_RETURN_NOT_OK(reader_.Fill());
    size_t header_end = 0;
    uint64_t fingerprint = 0;
    const Status header = CheckSegmentHeader(reader_.data(), reader_.size(),
                                             &header_end, &fingerprint);
    if (!header.ok()) {
      return Status::IOError("journal segment " + path +
                             " changed since its scan: " + header.message());
    }
    reader_.Consume(header_end);
  }
}

}  // namespace retrasyn
