#include "common/file_io.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <vector>

namespace retrasyn {
namespace {

class TempDir {
 public:
  TempDir() {
    auto dir = MakeTempDir("retrasyn-file-io-");
    EXPECT_TRUE(dir.ok()) << dir.status().ToString();
    path_ = std::move(dir).value();
  }
  ~TempDir() { RemoveDirTree(path_).CheckOK(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(FileIoTest, WriteFileAtomicallyPublishesAndReplaces) {
  TempDir dir;
  ASSERT_TRUE(WriteFileAtomically(dir.path(), "STATE", "first").ok());
  ASSERT_TRUE(WriteFileAtomically(dir.path(), "STATE", "second").ok());
  auto contents = ReadFileToString(dir.path() + "/STATE");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "second");
  // Only the final name is left behind.
  auto names = ListDirectory(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.value(), std::vector<std::string>{"STATE"});
}

TEST(FileIoTest, WriteFileAtomicallyDiscardsAStaleTempFile) {
  // A crash mid-write leaves `<name>.tmp` behind. The next write must not
  // append to it, or the orphan's bytes would prefix the published file.
  TempDir dir;
  {
    auto orphan = AppendableFile::Open(dir.path() + "/STATE.tmp");
    ASSERT_TRUE(orphan.ok());
    ASSERT_TRUE(orphan.value().Append("torn garbage").ok());
    ASSERT_TRUE(orphan.value().Close().ok());
  }
  auto names = ListDirectory(dir.path());
  ASSERT_TRUE(names.ok());
  ASSERT_EQ(names.value().size(), 1u);
  EXPECT_TRUE(IsTempFileName(names.value()[0]));

  ASSERT_TRUE(WriteFileAtomically(dir.path(), "STATE", "payload").ok());
  auto contents = ReadFileToString(dir.path() + "/STATE");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value(), "payload");
}

TEST(FileIoTest, WriteFileAtomicallyFailsOnAMissingDirectory) {
  TempDir dir;
  EXPECT_EQ(WriteFileAtomically(dir.path() + "/absent", "STATE", "x").code(),
            StatusCode::kIOError);
}

TEST(FileIoTest, RemoveDirTreeUnlinksSymlinksWithoutFollowingThem) {
  // A tree holding a file, a subdirectory, a symlink to a directory outside
  // it and one to a file outside it: the tree goes, the outside stays whole.
  TempDir outside;
  ASSERT_TRUE(WriteFileAtomically(outside.path(), "KEEP", "k").ok());
  TempDir holder;
  const std::string tree = holder.path() + "/tree";
  ASSERT_TRUE(CreateDirIfMissing(tree).ok());
  ASSERT_TRUE(CreateDirIfMissing(tree + "/sub").ok());
  ASSERT_TRUE(WriteFileAtomically(tree + "/sub", "FILE", "f").ok());
  ASSERT_EQ(::symlink(outside.path().c_str(), (tree + "/dir-link").c_str()),
            0);
  ASSERT_EQ(::symlink((outside.path() + "/KEEP").c_str(),
                      (tree + "/file-link").c_str()),
            0);

  ASSERT_TRUE(RemoveDirTree(tree).ok());
  EXPECT_EQ(ListDirectory(tree).status().code(), StatusCode::kNotFound);
  auto kept = ListDirectory(outside.path());
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept.value(), std::vector<std::string>{"KEEP"});
}

TEST(FileIoTest, SequentialReaderKeepsAStraddlingRecordContiguous) {
  // A file several buffers long, read in 7-byte "records": whenever a record
  // straddles the end of the buffer, Fill() must bring it in whole, at the
  // right file offset.
  TempDir dir;
  const std::string path = dir.path() + "/data";
  std::string bytes(3 * SequentialFileReader::kBufferBytes + 123, '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>((i * 131) % 251);
  }
  ASSERT_TRUE(WriteFileAtomically(dir.path(), "data", bytes).ok());

  SequentialFileReader reader;
  ASSERT_TRUE(reader.Open(path).ok());
  std::string read;
  constexpr size_t kRecord = 7;
  while (true) {
    if (reader.size() < kRecord) {
      ASSERT_TRUE(reader.Fill().ok());
    }
    if (reader.size() == 0) break;
    const size_t n = std::min(kRecord, reader.size());
    ASSERT_TRUE(n == kRecord || reader.eof());
    ASSERT_EQ(reader.offset(), static_cast<int64_t>(read.size()));
    read.append(reader.data(), n);
    reader.Consume(n);
  }
  EXPECT_TRUE(reader.eof());
  EXPECT_EQ(read, bytes);

  // A limit stops the read there; a full window cannot be filled further.
  ASSERT_TRUE(reader.Open(path, 1000).ok());
  ASSERT_TRUE(reader.Fill().ok());
  EXPECT_EQ(std::string(reader.data(), reader.size()), bytes.substr(0, 1000));
  EXPECT_TRUE(reader.eof());
  ASSERT_TRUE(reader.Open(path).ok());
  ASSERT_TRUE(reader.Fill().ok());
  ASSERT_EQ(reader.size(), SequentialFileReader::kBufferBytes);
  EXPECT_EQ(reader.Fill().code(), StatusCode::kInternal);
  EXPECT_EQ(reader.Open(dir.path() + "/missing").code(),
            StatusCode::kNotFound);
}

TEST(FileIoTest, IsTempFileNameMatchesOnlyTheSuffix) {
  EXPECT_TRUE(IsTempFileName("BASE.tmp"));
  EXPECT_TRUE(IsTempFileName("checkpoint-00000015.ckpt.tmp"));
  EXPECT_TRUE(IsTempFileName(".tmp"));
  EXPECT_FALSE(IsTempFileName("tmp"));
  EXPECT_FALSE(IsTempFileName("BASE"));
  EXPECT_FALSE(IsTempFileName("file.tmp.ckpt"));
}

}  // namespace
}  // namespace retrasyn
