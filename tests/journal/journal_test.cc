#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"
#include "testing/journal_events.h"

namespace retrasyn {
namespace {

/// A unique journal directory, removed on destruction.
class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-journal-");
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = std::move(dir).value();
  }
  ~TempDir() { RemoveDirTree(path_).CheckOK(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<JournalEvent> SampleWorkload(int rounds, int users) {
  std::vector<JournalEvent> events;
  for (int u = 0; u < users; ++u) {
    events.push_back(JournalEvent::Enter(
        static_cast<uint64_t>(u), Point{1.0 * u, 2.0 * u}));
  }
  events.push_back(JournalEvent::Tick());
  for (int t = 1; t < rounds; ++t) {
    for (int u = 0; u < users; ++u) {
      events.push_back(JournalEvent::Move(
          static_cast<uint64_t>(u), Point{1.0 * u + t, 2.0 * u - t}));
    }
    events.push_back(JournalEvent::Tick());
  }
  return events;
}

Status WriteAll(const std::string& dir, const JournalOptions& options,
                const std::vector<JournalEvent>& events) {
  Telemetry telemetry;
  auto writer = JournalWriter::Open(dir, options, telemetry);
  RETRASYN_RETURN_NOT_OK(writer.status());
  for (const JournalEvent& e : events) {
    RETRASYN_RETURN_NOT_OK(writer.value()->Append(e));
  }
  return writer.value()->Close();
}

TEST(JournalOptionsTest, ValidateRejectsAnUnknownFsyncPolicy) {
  JournalOptions options;
  EXPECT_TRUE(options.Validate().ok());
  options.fsync = FsyncPolicy::kNever;
  EXPECT_TRUE(options.Validate().ok());
  // 2 was the per-record policy; a config still naming it is refused.
  options.fsync = static_cast<FsyncPolicy>(2);
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
}

TEST(JournalWriterTest, SegmentFileNameRoundtrips) {
  for (uint64_t index : {0ull, 7ull, 99999999ull, 123456789012ull}) {
    uint64_t parsed = 0;
    ASSERT_TRUE(JournalWriter::ParseSegmentFileName(
        JournalWriter::SegmentFileName(index), &parsed));
    EXPECT_EQ(parsed, index);
  }
  uint64_t unused;
  EXPECT_FALSE(JournalWriter::ParseSegmentFileName("journal-1.wal", &unused));
  EXPECT_FALSE(
      JournalWriter::ParseSegmentFileName("journal-0000000x.wal", &unused));
  EXPECT_FALSE(JournalWriter::ParseSegmentFileName("notes.txt", &unused));
}

TEST(JournalTest, WriterReaderRoundtripAllPolicies) {
  const std::vector<JournalEvent> events = SampleWorkload(10, 7);
  for (FsyncPolicy policy : {FsyncPolicy::kNever, FsyncPolicy::kEveryRound}) {
    TempDir dir;
    JournalOptions options;
    options.fsync = policy;
    ASSERT_TRUE(WriteAll(dir.path(), options, events).ok())
        << FsyncPolicyName(policy);
    auto scan = JournalReader::ScanDir(dir.path());
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan.value().torn);
    EXPECT_EQ(ReadJournalEvents(scan.value()), events)
        << FsyncPolicyName(policy);
    // Without a checkpoint cadence the writer never ends its segment.
    EXPECT_EQ(scan.value().num_segments, 1u);
  }
}

TEST(JournalTest, RotatesAtRoundBoundariesOnly) {
  TempDir dir;
  JournalOptions options;
  options.checkpoint_every_rounds = 7;
  const std::vector<JournalEvent> events = SampleWorkload(40, 20);
  {
    Telemetry telemetry;
    auto writer = JournalWriter::Open(dir.path(), options, telemetry);
    ASSERT_TRUE(writer.ok());
    for (const JournalEvent& e : events) {
      ASSERT_TRUE(writer.value()->Append(e).ok());
    }
    // Segments end at rounds 7, 14, 21, 28 and 35; the sixth stays open.
    EXPECT_EQ(writer.value()->segments_created(), 6u);
    EXPECT_EQ(writer.value()->records_appended(), events.size());
    std::vector<int64_t> sealed_ends;
    for (const SealedSegment& s : writer.value()->TakeSealedSegments()) {
      sealed_ends.push_back(s.end_round);
    }
    EXPECT_EQ(sealed_ends, (std::vector<int64_t>{7, 14, 21, 28, 35}));
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // Every non-final segment must end exactly on a record boundary with a
  // round boundary as its last record — the reader enforces the former and
  // the scan proves the latter by reproducing the exact event sequence.
  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().num_segments, 6u);
  EXPECT_EQ(ReadJournalEvents(scan.value()), events);
  for (size_t i = 0; i + 1 < scan.value().segments.size(); ++i) {
    EXPECT_EQ(scan.value().segments[i].end_round,
              7 * static_cast<int64_t>(i + 1));
  }
  EXPECT_EQ(scan.value().segments.back().end_round, 40);
}

TEST(JournalTest, SegmentsEndAtAbsoluteCheckpointRounds) {
  // A writer continuing a recovered journal counts checkpoint rounds from
  // the absolute base, not from its own first round.
  TempDir dir;
  JournalOptions options;
  options.checkpoint_every_rounds = 4;
  Telemetry telemetry;
  auto writer = JournalWriter::Open(dir.path(), options, telemetry);
  ASSERT_TRUE(writer.ok());
  writer.value()->set_base_round(6);
  for (int t = 0; t < 10; ++t) {  // closes rounds 7 .. 16
    ASSERT_TRUE(writer.value()->Append(JournalEvent::Tick()).ok());
  }
  std::vector<int64_t> sealed_ends;
  for (const SealedSegment& s : writer.value()->TakeSealedSegments()) {
    sealed_ends.push_back(s.end_round);
  }
  EXPECT_EQ(sealed_ends, (std::vector<int64_t>{8, 12, 16}));
  EXPECT_EQ(writer.value()->segments_created(), 4u);
}


TEST(JournalTest, ReopenStartsNewSegmentAndScanSeesBoth) {
  TempDir dir;
  const std::vector<JournalEvent> first = SampleWorkload(3, 2);
  const std::vector<JournalEvent> second = {JournalEvent::Quit(0),
                                            JournalEvent::Quit(1),
                                            JournalEvent::Tick()};
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), first).ok());
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), second).ok());

  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(scan.value().num_segments, 2u);
  std::vector<JournalEvent> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(ReadJournalEvents(scan.value()), expected);
}

TEST(JournalTest, RecordsStraddlingTheReadBufferRoundTrip) {
  // Both passes read through one fixed-size buffer, so a journal several
  // buffers long puts records across refills in the scan and in the cursor.
  for (const int every : {0, 7}) {
    SCOPED_TRACE("checkpoint_every_rounds " + std::to_string(every));
    TempDir dir;
    JournalOptions options;
    options.checkpoint_every_rounds = every;
    const std::vector<JournalEvent> events = SampleWorkload(60, 300);
    ASSERT_TRUE(WriteAll(dir.path(), options, events).ok());
    auto first = FileSize(dir.path() + "/" + JournalWriter::SegmentFileName(0));
    ASSERT_TRUE(first.ok());
    if (every == 0) {
      ASSERT_GT(first.value(),
                static_cast<int64_t>(4 * SequentialFileReader::kBufferBytes));
    }
    auto scan = JournalReader::ScanDir(dir.path());
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan.value().torn);
    EXPECT_EQ(scan.value().records, events.size());
    EXPECT_EQ(scan.value().end_round, 60);
    EXPECT_EQ(ReadJournalEvents(scan.value()), events);
  }
}

TEST(JournalTest, MalformedLengthFarFromTheEndIsATornTailAsBefore) {
  // A length varint that never ends reads as "the record runs past the
  // data" however many bytes follow. The scan must not keep refilling for
  // it: a window of a whole record's worth decides, so a run of 0xff bytes
  // several buffers before the end of the final segment is a torn tail
  // there, exactly as a read of the whole file would classify it.
  TempDir dir;
  const std::vector<JournalEvent> events = SampleWorkload(60, 300);
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), events).ok());
  const std::string segment =
      dir.path() + "/" + JournalWriter::SegmentFileName(0);
  std::string data = ReadFileToString(segment).ValueOrDie();
  size_t cut = kSegmentHeaderSize;
  size_t kept = 0;
  JournalEvent e;
  while (cut < SequentialFileReader::kBufferBytes + 100) {
    ASSERT_TRUE(DecodeRecord(data.data(), data.size(), &cut, &e).ok());
    ++kept;
  }
  ASSERT_GT(data.size(), cut + 3 * SequentialFileReader::kBufferBytes);
  data.replace(cut, 16, std::string(16, '\xff'));
  {
    std::FILE* f = std::fopen(segment.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }
  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_TRUE(scan.value().torn);
  EXPECT_EQ(scan.value().valid_tail_size, static_cast<int64_t>(cut));
  EXPECT_EQ(ReadJournalEvents(scan.value()),
            std::vector<JournalEvent>(events.begin(),
                                      events.begin() +
                                          static_cast<std::ptrdiff_t>(kept)));
}

TEST(JournalCursorTest, ResumesAtTheSegmentHoldingTheRoundAndSkipsTheRest) {
  // Segments end at rounds 7, 14, ...: resuming at 14 opens the third
  // segment and decodes nothing before it; resuming at 16 skips the two
  // rounds before it inside that segment.
  TempDir dir;
  JournalOptions options;
  options.checkpoint_every_rounds = 7;
  constexpr int kUsers = 5;
  const std::vector<JournalEvent> events = SampleWorkload(40, kUsers);
  ASSERT_TRUE(WriteAll(dir.path(), options, events).ok());
  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().segments[2].start_round, 14);

  constexpr uint64_t kPerRound = kUsers + 1;  // the moves and the boundary
  for (const int64_t resume : {int64_t{14}, int64_t{16}}) {
    SCOPED_TRACE("resume " + std::to_string(resume));
    auto cursor = JournalCursor::Open(scan.value(), resume);
    ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
    EXPECT_EQ(cursor.value().round(), resume);
    EXPECT_EQ(cursor.value().records_decoded(),
              static_cast<uint64_t>(resume - 14) * kPerRound);
    std::vector<JournalEvent> round;
    bool closed = false;
    ASSERT_TRUE(cursor.value().ReadRound(&round, &closed).ok());
    EXPECT_TRUE(closed);
    const auto begin =
        events.begin() + static_cast<std::ptrdiff_t>(resume * kPerRound);
    EXPECT_EQ(round, std::vector<JournalEvent>(begin, begin + kUsers));
    int64_t rounds = 1;
    while (closed) {
      ASSERT_TRUE(cursor.value().ReadRound(&round, &closed).ok());
      rounds += closed ? 1 : 0;
    }
    EXPECT_TRUE(round.empty());
    EXPECT_EQ(rounds, 40 - resume);
    EXPECT_EQ(cursor.value().records_decoded(), (40 - 14) * kPerRound);
  }
  EXPECT_EQ(JournalCursor::Open(scan.value(), -1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(JournalCursorTest, AnOpenRoundSplitAcrossAReopenReadsAsOneRound) {
  // A crash mid-round leaves its first events at the end of one segment;
  // the recovered writer journals the rest of the round in the next one.
  TempDir dir;
  std::vector<JournalEvent> first = SampleWorkload(3, 2);
  first.push_back(JournalEvent::Move(0, Point{9.0, 9.0}));
  first.push_back(JournalEvent::Move(1, Point{8.0, 8.0}));
  const std::vector<JournalEvent> second = {JournalEvent::Quit(0),
                                            JournalEvent::Tick()};
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), first).ok());
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), second).ok());
  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan.value().segments[0].end_round, 3);

  auto cursor = JournalCursor::Open(scan.value(), 3);
  ASSERT_TRUE(cursor.ok()) << cursor.status().ToString();
  std::vector<JournalEvent> round;
  bool closed = false;
  ASSERT_TRUE(cursor.value().ReadRound(&round, &closed).ok());
  EXPECT_TRUE(closed);
  EXPECT_EQ(round, (std::vector<JournalEvent>{first[first.size() - 2],
                                              first.back(), second[0]}));
  ASSERT_TRUE(cursor.value().ReadRound(&round, &closed).ok());
  EXPECT_FALSE(closed);
  EXPECT_TRUE(round.empty());
}

TEST(JournalTest, ScanOfMissingOrEmptyDirIsEmpty) {
  auto missing = JournalReader::ScanDir("/nonexistent/retrasyn-journal");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(ReadJournalEvents(missing.value()).empty());

  TempDir dir;
  auto empty = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(ReadJournalEvents(empty.value()).empty());
  EXPECT_FALSE(empty.value().torn);
}

TEST(JournalTest, ZeroLengthSegmentAnywhereIsCleanEmpty) {
  // A crash between segment creation and the header flush leaves a 0-byte
  // file; once a later writer continues in a fresh segment, that file sits
  // mid-journal. Both positions must scan clean.
  TempDir dir;
  const std::vector<JournalEvent> first = SampleWorkload(2, 2);
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), first).ok());
  {  // 0-byte last segment
    std::FILE* f = std::fopen(
        (dir.path() + "/" + JournalWriter::SegmentFileName(1)).c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_FALSE(scan.value().torn);
  EXPECT_EQ(ReadJournalEvents(scan.value()), first);

  // A writer reopening the dir numbers past the empty file, making it a
  // mid-journal segment.
  const std::vector<JournalEvent> second = {JournalEvent::Tick()};
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), second).ok());
  scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::vector<JournalEvent> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(ReadJournalEvents(scan.value()), expected);
}

TEST(JournalTest, SegmentGapFailsTheScan) {
  TempDir dir;
  JournalOptions options;
  options.checkpoint_every_rounds = 7;
  ASSERT_TRUE(WriteAll(dir.path(), options, SampleWorkload(40, 20)).ok());
  auto before = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(before.ok());
  ASSERT_GT(before.value().num_segments, 2u);
  ASSERT_TRUE(
      RemoveFile(dir.path() + "/" + JournalWriter::SegmentFileName(1)).ok());
  EXPECT_EQ(JournalReader::ScanDir(dir.path()).status().code(),
            StatusCode::kIOError);
}

TEST(JournalTest, CorruptionBeforeFinalSegmentFailsTheScan) {
  TempDir dir;
  JournalOptions options;
  options.checkpoint_every_rounds = 7;
  ASSERT_TRUE(WriteAll(dir.path(), options, SampleWorkload(40, 20)).ok());

  const std::string first = dir.path() + "/" + JournalWriter::SegmentFileName(0);
  auto contents = ReadFileToString(first);
  ASSERT_TRUE(contents.ok());
  std::string data = contents.value();
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x40);
  {
    std::FILE* f = std::fopen(first.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
  }
  EXPECT_EQ(JournalReader::ScanDir(dir.path()).status().code(),
            StatusCode::kIOError);
}

TEST(JournalTest, UnreadableHeaderInFinalSegmentFailsTheScan) {
  // Only a header cut short is a torn tail. A complete header with a bad
  // magic or an unknown version is corruption even in the final segment:
  // the scan must fail instead of offering the whole segment for truncation.
  for (const size_t byte : {size_t{0}, sizeof(kJournalMagic)}) {
    TempDir dir;
    ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), SampleWorkload(4, 3))
                    .ok());
    const std::string segment =
        dir.path() + "/" + JournalWriter::SegmentFileName(0);
    auto contents = ReadFileToString(segment);
    ASSERT_TRUE(contents.ok());
    std::string data = contents.value();
    data[byte] = static_cast<char>(99);
    {
      std::FILE* f = std::fopen(segment.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
      std::fclose(f);
    }
    EXPECT_EQ(JournalReader::ScanDir(dir.path()).status().code(),
              StatusCode::kIOError)
        << "byte " << byte;
    auto after = FileSize(segment);
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value(), static_cast<int64_t>(data.size()))
        << "byte " << byte;
  }
}

TEST(JournalTest, ChecksumValidRecordThatDoesNotDecodeFailsTheScan) {
  // An interrupted append leaves a frame cut short, a zero length or a
  // checksum mismatch, never a whole record that passes its checksum. One
  // that does not decode (an unknown type 6, or the retired type 5) is
  // corruption even in the final segment: the scan must fail and leave the
  // file as it is, not cut it and the two Ticks behind it off as a torn
  // tail. A zero-filled tail, which a crash can leave, still reads as torn.
  std::string tail_ticks;
  EncodeRecord(JournalEvent::Tick(), &tail_ticks);
  EncodeRecord(JournalEvent::Tick(), &tail_ticks);
  for (const std::string& payload :
       {std::string("\x06"), std::string("\x05\x05"), std::string()}) {
    TempDir dir;
    const std::vector<JournalEvent> events = SampleWorkload(4, 3);
    ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), events).ok());
    const std::string segment =
        dir.path() + "/" + JournalWriter::SegmentFileName(0);
    std::string appended;
    if (payload.empty()) {
      appended.assign(16, '\0');
    } else {
      PutVarint64(payload.size(), &appended);
      appended += payload;
      PutFixed32(Crc32c(payload.data(), payload.size()), &appended);
      appended += tail_ticks;
    }
    const std::string written = ReadFileToString(segment).ValueOrDie();
    {
      std::FILE* f = std::fopen(segment.c_str(), "ab");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(appended.data(), 1, appended.size(), f),
                appended.size());
      std::fclose(f);
    }
    auto scan = JournalReader::ScanDir(dir.path());
    if (payload.empty()) {
      ASSERT_TRUE(scan.ok()) << scan.status().ToString();
      EXPECT_TRUE(scan.value().torn);
      EXPECT_EQ(scan.value().valid_tail_size,
                static_cast<int64_t>(written.size()));
      EXPECT_EQ(ReadJournalEvents(scan.value()), events);
      continue;
    }
    EXPECT_EQ(scan.status().code(), StatusCode::kIOError)
        << "type " << static_cast<int>(payload[0]);
    EXPECT_EQ(ReadFileToString(segment).ValueOrDie(), written + appended)
        << "type " << static_cast<int>(payload[0]);
  }
}

TEST(JournalTest, TornTailInFinalSegmentTruncatesAtEveryByteOffset) {
  // Write a small journal, then truncate the FINAL segment at every byte
  // offset inside its final record: the scan must always succeed, keep
  // exactly the events whose records fit, and report a truncation point that
  // makes the journal clean again.
  TempDir dir;
  const std::vector<JournalEvent> events = SampleWorkload(4, 3);
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), events).ok());
  const std::string segment =
      dir.path() + "/" + JournalWriter::SegmentFileName(0);
  auto full_contents = ReadFileToString(segment);
  ASSERT_TRUE(full_contents.ok());
  const std::string full = full_contents.value();

  // Record boundaries: offsets at which a cut leaves a *clean* journal
  // (empty file, end of header, or end of any record).
  std::vector<size_t> boundaries = {0, kSegmentHeaderSize};
  {
    size_t offset = kSegmentHeaderSize;
    JournalEvent e;
    while (offset < full.size()) {
      ASSERT_TRUE(DecodeRecord(full.data(), full.size(), &offset, &e).ok());
      boundaries.push_back(offset);
    }
  }

  for (int64_t cut = static_cast<int64_t>(full.size()) - 1; cut >= 0; --cut) {
    TempDir copy;
    const std::string path =
        copy.path() + "/" + JournalWriter::SegmentFileName(0);
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      ASSERT_EQ(std::fwrite(full.data(), 1, static_cast<size_t>(cut), f),
                static_cast<size_t>(cut));
      std::fclose(f);
    }
    auto scan = JournalReader::ScanDir(copy.path());
    ASSERT_TRUE(scan.ok()) << "cut=" << cut << ": "
                           << scan.status().ToString();
    const JournalScan& s = scan.value();
    const std::vector<JournalEvent> survived = ReadJournalEvents(s);
    EXPECT_LE(survived.size(), events.size());
    for (size_t i = 0; i < survived.size(); ++i) {
      EXPECT_EQ(survived[i], events[i]) << "cut=" << cut << " event " << i;
    }
    const bool on_boundary =
        std::find(boundaries.begin(), boundaries.end(),
                  static_cast<size_t>(cut)) != boundaries.end();
    EXPECT_EQ(s.torn, !on_boundary) << "cut=" << cut;
    if (s.torn) {
      EXPECT_LE(s.valid_tail_size, cut);
      // Truncating at the reported offset yields a clean journal with the
      // same surviving events.
      ASSERT_TRUE(TruncateFile(path, s.valid_tail_size).ok());
      auto rescan = JournalReader::ScanDir(copy.path());
      ASSERT_TRUE(rescan.ok());
      EXPECT_FALSE(rescan.value().torn) << "cut=" << cut;
      EXPECT_EQ(ReadJournalEvents(rescan.value()), survived) << "cut=" << cut;
    }
  }
}

TEST(JournalWriterTest, SecondWriterOnTheSameDirIsRefused) {
  // Two writers interleaving appends into one segment would corrupt the
  // journal beyond recovery; the <dir>/LOCK flock turns that race (e.g. a
  // supervisor restarting a service whose old process is still dying) into
  // a fast FailedPrecondition.
  TempDir dir;
  Telemetry telemetry;
  auto first = JournalWriter::Open(dir.path(), JournalOptions(), telemetry);
  ASSERT_TRUE(first.ok());
  auto second = JournalWriter::Open(dir.path(), JournalOptions(), telemetry);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Releasing the first writer (Close or destruction) frees the lock.
  ASSERT_TRUE(first.value()->Close().ok());
  auto third = JournalWriter::Open(dir.path(), JournalOptions(), telemetry);
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(JournalWriterTest, AppendAfterCloseIsSticky) {
  TempDir dir;
  Telemetry telemetry;
  auto writer = JournalWriter::Open(dir.path(), JournalOptions(), telemetry);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(JournalEvent::Tick()).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_FALSE(writer.value()->Append(JournalEvent::Tick()).ok());
  EXPECT_FALSE(writer.value()->Sync().ok());
}

}  // namespace
}  // namespace retrasyn
