#include "journal/journal_reader.h"

#include <algorithm>
#include <utility>

#include "common/file_io.h"
#include "journal/journal_compaction.h"
#include "journal/journal_writer.h"

namespace retrasyn {

Result<JournalScan> JournalReader::ScanDir(const std::string& dir) {
  JournalScan scan;
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
  for (const std::string& name : names.value()) {
    // Orphaned tmp files are atomic writes that never renamed; the write
    // they belonged to never happened, so they are garbage under any name.
    if (IsTempFileName(name)) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
      ++scan.files_cleaned;
      continue;
    }
    uint64_t index = 0;
    if (JournalWriter::ParseSegmentFileName(name, &index)) {
      if (index < first_surviving_index) {
        // Durably declared dead by BASE; the unlink just never finished.
        RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
        ++scan.files_cleaned;
        continue;
      }
      segments.emplace_back(index, name);
    }
  }
  if (scan.files_cleaned > 0) RETRASYN_RETURN_NOT_OK(SyncDir(dir));
  std::sort(segments.begin(), segments.end());
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
  for (size_t i = 0; i < segments.size(); ++i) {
    const bool last = (i + 1 == segments.size());
    const std::string path = dir + "/" + segments[i].second;
    auto contents = ReadFileToString(path);
    if (!contents.ok()) return contents.status();
    const std::string& data = contents.value();
    ++scan.num_segments;
    scan.bytes_scanned += data.size();

    // A zero-length segment is clean-empty wherever it appears: a crash
    // between file creation and the header flush leaves one behind, tail
    // truncation can legally cut a segment back to nothing, and recovery
    // then continues in a fresh segment *after* it — so an old 0-byte file
    // can end up mid-journal. No acknowledged record can be lost this way:
    // a segment gets bytes before its successor is ever created.
    if (data.empty()) {
      scan.segments.push_back(ScannedSegment{segments[i].first, round_cursor});
      continue;
    }

    size_t offset = 0;
    uint64_t fingerprint = 0;
    Status st =
        CheckSegmentHeader(data.data(), data.size(), &offset, &fingerprint);
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
    }
    if (st.ok()) {
      JournalEvent event;
      size_t last_record_start = 0;
      bool any_records = false;
      while (offset < data.size()) {
        const size_t record_start = offset;
        st = DecodeRecord(data.data(), data.size(), &offset, &event);
        if (!st.ok()) break;
        last_record_start = record_start;
        any_records = true;
        if (event.type == JournalEventType::kTick) {
          ++round_cursor;
        } else if (event.type == JournalEventType::kAdvanceTo) {
          round_cursor = std::max(round_cursor, event.target_t);
        }
        scan.events.push_back(event);
      }
      if (any_records) {
        scan.last_record_segment = path;
        scan.last_record_offset = static_cast<int64_t>(last_record_start);
      }
    }
    if (!st.ok()) {
      if (!last) {
        return Status::IOError("corrupt journal segment " + path +
                               " before the final one: " + st.message());
      }
      // Torn tail: keep the valid prefix, report the truncation point.
      // A header that never finished writing truncates to an empty file.
      scan.torn = true;
      scan.torn_segment = path;
      scan.valid_tail_size =
          static_cast<int64_t>(offset < kSegmentHeaderSize ? 0 : offset);
    }
    scan.segments.push_back(ScannedSegment{segments[i].first, round_cursor});
  }
  return scan;
}

}  // namespace retrasyn
