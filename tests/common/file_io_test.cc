#include "common/file_io.h"

#include <gtest/gtest.h>

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
