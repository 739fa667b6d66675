#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/file_io.h"
#include "journal/journal_reader.h"
#include "journal/journal_writer.h"

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
  auto writer = JournalWriter::Open(dir, options);
  RETRASYN_RETURN_NOT_OK(writer.status());
  for (const JournalEvent& e : events) {
    RETRASYN_RETURN_NOT_OK(writer.value()->Append(e));
  }
  return writer.value()->Close();
}

TEST(JournalOptionsTest, ValidateRejectsTinySegments) {
  JournalOptions options;
  options.segment_bytes = 16;
  EXPECT_EQ(options.Validate().code(), StatusCode::kInvalidArgument);
  options.segment_bytes = JournalOptions::kMinSegmentBytes;
  EXPECT_TRUE(options.Validate().ok());
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
  for (FsyncPolicy policy : {FsyncPolicy::kNever, FsyncPolicy::kEveryRound,
                             FsyncPolicy::kEveryRecord}) {
    TempDir dir;
    JournalOptions options;
    options.fsync = policy;
    ASSERT_TRUE(WriteAll(dir.path(), options, events).ok())
        << FsyncPolicyName(policy);
    auto scan = JournalReader::ScanDir(dir.path());
    ASSERT_TRUE(scan.ok()) << scan.status().ToString();
    EXPECT_FALSE(scan.value().torn);
    EXPECT_EQ(scan.value().events, events) << FsyncPolicyName(policy);
  }
}

TEST(JournalTest, RotatesAtRoundBoundariesOnly) {
  TempDir dir;
  JournalOptions options;
  options.segment_bytes = JournalOptions::kMinSegmentBytes;  // rotate often
  const std::vector<JournalEvent> events = SampleWorkload(40, 20);
  {
    auto writer = JournalWriter::Open(dir.path(), options);
    ASSERT_TRUE(writer.ok());
    for (const JournalEvent& e : events) {
      ASSERT_TRUE(writer.value()->Append(e).ok());
    }
    EXPECT_GT(writer.value()->segments_created(), 2u);
    EXPECT_EQ(writer.value()->records_appended(), events.size());
    ASSERT_TRUE(writer.value()->Close().ok());
  }
  // Every non-final segment must end exactly on a record boundary with a
  // round boundary as its last record — the reader enforces the former and
  // the scan proves the latter by reproducing the exact event sequence.
  auto scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_GT(scan.value().num_segments, 2u);
  EXPECT_EQ(scan.value().events, events);
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
  EXPECT_EQ(scan.value().events, expected);
}

TEST(JournalTest, ScanOfMissingOrEmptyDirIsEmpty) {
  auto missing = JournalReader::ScanDir("/nonexistent/retrasyn-journal");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE(missing.value().events.empty());

  TempDir dir;
  auto empty = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().events.empty());
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
  EXPECT_EQ(scan.value().events, first);

  // A writer reopening the dir numbers past the empty file, making it a
  // mid-journal segment.
  const std::vector<JournalEvent> second = {JournalEvent::Tick()};
  ASSERT_TRUE(WriteAll(dir.path(), JournalOptions(), second).ok());
  scan = JournalReader::ScanDir(dir.path());
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  std::vector<JournalEvent> expected = first;
  expected.insert(expected.end(), second.begin(), second.end());
  EXPECT_EQ(scan.value().events, expected);
}

TEST(JournalTest, SegmentGapFailsTheScan) {
  TempDir dir;
  JournalOptions options;
  options.segment_bytes = JournalOptions::kMinSegmentBytes;
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
  options.segment_bytes = JournalOptions::kMinSegmentBytes;
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
    EXPECT_LE(s.events.size(), events.size());
    for (size_t i = 0; i < s.events.size(); ++i) {
      EXPECT_EQ(s.events[i], events[i]) << "cut=" << cut << " event " << i;
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
      EXPECT_EQ(rescan.value().events, s.events) << "cut=" << cut;
    }
  }
}

TEST(JournalWriterTest, SecondWriterOnTheSameDirIsRefused) {
  // Two writers interleaving appends into one segment would corrupt the
  // journal beyond recovery; the <dir>/LOCK flock turns that race (e.g. a
  // supervisor restarting a service whose old process is still dying) into
  // a fast FailedPrecondition.
  TempDir dir;
  auto first = JournalWriter::Open(dir.path(), JournalOptions());
  ASSERT_TRUE(first.ok());
  auto second = JournalWriter::Open(dir.path(), JournalOptions());
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
  // Releasing the first writer (Close or destruction) frees the lock.
  ASSERT_TRUE(first.value()->Close().ok());
  auto third = JournalWriter::Open(dir.path(), JournalOptions());
  EXPECT_TRUE(third.ok()) << third.status().ToString();
}

TEST(JournalWriterTest, AppendAfterCloseIsSticky) {
  TempDir dir;
  auto writer = JournalWriter::Open(dir.path(), JournalOptions());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()->Append(JournalEvent::Tick()).ok());
  ASSERT_TRUE(writer.value()->Close().ok());
  EXPECT_FALSE(writer.value()->Append(JournalEvent::Tick()).ok());
  EXPECT_FALSE(writer.value()->Sync().ok());
}

}  // namespace
}  // namespace retrasyn
