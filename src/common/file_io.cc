#include "common/file_io.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

namespace retrasyn {

namespace {

constexpr char kTempSuffix[] = ".tmp";

std::string ErrnoMessage(const std::string& action, const std::string& path) {
  return action + " " + path + ": " + std::strerror(errno);
}

}  // namespace

Status CreateDirIfMissing(const std::string& dir) {
  if (::mkdir(dir.c_str(), 0755) == 0 || errno == EEXIST) {
    struct stat st;
    if (::stat(dir.c_str(), &st) != 0) {
      return Status::IOError(ErrnoMessage("stat", dir));
    }
    if (!S_ISDIR(st.st_mode)) {
      return Status::IOError(dir + " exists and is not a directory");
    }
    return Status::OK();
  }
  return Status::IOError(ErrnoMessage("mkdir", dir));
}

Status SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open dir", dir));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError(ErrnoMessage("fsync dir", dir));
  return Status::OK();
}

Result<std::vector<std::string>> ListDirectory(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such directory: " + dir);
    return Status::IOError(ErrnoMessage("opendir", dir));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISREG(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<std::string>> ListSubdirectories(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such directory: " + dir);
    return Status::IOError(ErrnoMessage("opendir", dir));
  }
  std::vector<std::string> names;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  std::sort(names.begin(), names.end());
  return names;
}

Result<int64_t> FileSize(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError(ErrnoMessage("stat", path));
  }
  return static_cast<int64_t>(st.st_size);
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IOError(ErrnoMessage("open", path));
  }
  std::string out;
  char buf[1 << 16];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    out.append(buf, n);
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError(ErrnoMessage("read", path));
  return out;
}

Status TruncateFile(const std::string& path, int64_t size) {
  if (size < 0) {
    return Status::InvalidArgument("negative truncation size");
  }
  if (::truncate(path.c_str(), static_cast<off_t>(size)) != 0) {
    return Status::IOError(ErrnoMessage("truncate", path));
  }
  // fsync through a read-write descriptor so the shortened length is durable
  // before recovery continues appending after it.
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return Status::IOError(ErrnoMessage("open", path));
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Status::IOError(ErrnoMessage("fsync", path));
  return Status::OK();
}

Status RemoveFile(const std::string& path) {
  if (::unlink(path.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("unlink", path));
  }
  return Status::OK();
}

Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           const std::string& bytes) {
  const std::string final_path = dir + "/" + name;
  const std::string tmp_path = final_path + kTempSuffix;
  // The tmp file is opened for appending: a stale one from a crashed write
  // must go first, or its bytes would prefix the new contents.
  if (::unlink(tmp_path.c_str()) != 0 && errno != ENOENT) {
    return Status::IOError(ErrnoMessage("unlink", tmp_path));
  }
  {
    auto file = AppendableFile::Open(tmp_path);
    if (!file.ok()) return file.status();
    AppendableFile tmp = std::move(file).value();
    RETRASYN_RETURN_NOT_OK(tmp.Append(bytes));
    RETRASYN_RETURN_NOT_OK(tmp.Sync());
    RETRASYN_RETURN_NOT_OK(tmp.Close());
  }
  // rename alone only orders against other metadata; the directory fsync
  // makes the new name survive a crash.
  if (::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rename", tmp_path + " -> " + name));
  }
  return SyncDir(dir);
}

bool IsTempFileName(const std::string& name) {
  const size_t len = sizeof(kTempSuffix) - 1;
  return name.size() >= len &&
         name.compare(name.size() - len, len, kTempSuffix) == 0;
}

Result<std::string> MakeTempDir(const std::string& prefix,
                                const std::string& base_dir) {
  std::string base = base_dir;
  if (base.empty()) {
    const char* env = std::getenv("TMPDIR");
    base = env != nullptr ? env : "/tmp";
  }
  std::string tmpl = base + "/" + prefix + "XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    return Status::IOError(ErrnoMessage("mkdtemp", tmpl));
  }
  return std::string(buf.data());
}

Status RemoveDirTree(const std::string& dir) {
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IOError(ErrnoMessage("opendir", dir));
  }
  std::vector<std::string> files;
  std::vector<std::string> subdirs;
  while (struct dirent* entry = ::readdir(d)) {
    const std::string name = entry->d_name;
    if (name == "." || name == "..") continue;
    struct stat st;
    if (::stat((dir + "/" + name).c_str(), &st) == 0 && S_ISDIR(st.st_mode)) {
      subdirs.push_back(name);
    } else {
      files.push_back(name);
    }
  }
  ::closedir(d);
  for (const std::string& name : subdirs) {
    RETRASYN_RETURN_NOT_OK(RemoveDirTree(dir + "/" + name));
  }
  for (const std::string& name : files) {
    RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
  }
  if (::rmdir(dir.c_str()) != 0) {
    return Status::IOError(ErrnoMessage("rmdir", dir));
  }
  return Status::OK();
}

Result<FileLock> FileLock::Acquire(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) return Status::IOError(ErrnoMessage("open lock file", path));
  if (::flock(fd, LOCK_EX | LOCK_NB) != 0) {
    const Status st =
        errno == EWOULDBLOCK
            ? Status::FailedPrecondition(path +
                                         " is locked by another writer")
            : Status::IOError(ErrnoMessage("flock", path));
    ::close(fd);
    return st;
  }
  return FileLock(fd, path);
}

void FileLock::Release() {
  if (fd_ < 0) return;
  ::flock(fd_, LOCK_UN);
  ::close(fd_);
  fd_ = -1;
}

Result<AppendableFile> AppendableFile::Open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    return Status::IOError(ErrnoMessage("open for append", path));
  }
  return AppendableFile(f, path);
}

Status AppendableFile::Append(const char* data, size_t size) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("append to closed file " + path_);
  }
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::IOError(ErrnoMessage("append", path_));
  }
  return Status::OK();
}

Status AppendableFile::Flush() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("flush of closed file " + path_);
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError(ErrnoMessage("flush", path_));
  }
  return Status::OK();
}

Status AppendableFile::Sync() {
  RETRASYN_RETURN_NOT_OK(Flush());
  if (::fsync(::fileno(file_)) != 0) {
    return Status::IOError(ErrnoMessage("fsync", path_));
  }
  return Status::OK();
}

Status AppendableFile::SyncData() {
  RETRASYN_RETURN_NOT_OK(Flush());
  if (::fdatasync(::fileno(file_)) != 0) {
    return Status::IOError(ErrnoMessage("fdatasync", path_));
  }
  return Status::OK();
}

int AppendableFile::fd() const {
  return file_ != nullptr ? ::fileno(file_) : -1;
}

Status AppendableFile::Close() {
  if (file_ == nullptr) return Status::OK();
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (rc != 0) return Status::IOError(ErrnoMessage("close", path_));
  return Status::OK();
}

}  // namespace retrasyn
