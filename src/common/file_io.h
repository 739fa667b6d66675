// Small POSIX file-system helpers for the durability layer: an appendable
// file that can be flushed and fsync'd explicitly, the one atomic tmp +
// rename write, plus directory listing, sizing, whole-file reads, and
// truncation. Everything returns Status / Result — a full disk or a vanished
// directory is an environmental failure, never a crash.

#ifndef RETRASYN_COMMON_FILE_IO_H_
#define RETRASYN_COMMON_FILE_IO_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/status.h"

namespace retrasyn {

/// \brief Creates \p dir (one level) if it does not exist yet.
Status CreateDirIfMissing(const std::string& dir);

/// \brief fsyncs the directory itself, making freshly created (or removed)
/// entries durable — fsync on a file does not cover its directory entry.
Status SyncDir(const std::string& dir);

/// \brief Names (not paths) of the regular files in \p dir, sorted.
Result<std::vector<std::string>> ListDirectory(const std::string& dir);

/// \brief Names (not paths) of the subdirectories of \p dir, sorted
/// ("." and ".." excluded). NotFound when \p dir itself does not exist.
Result<std::vector<std::string>> ListSubdirectories(const std::string& dir);

/// \brief Size of the file at \p path in bytes.
Result<int64_t> FileSize(const std::string& path);

/// \brief Reads the entire file at \p path.
Result<std::string> ReadFileToString(const std::string& path);

/// \brief Truncates the file at \p path to exactly \p size bytes and syncs
/// the change to disk (used to cut a torn journal tail).
Status TruncateFile(const std::string& path, int64_t size);

/// \brief Removes the file at \p path.
Status RemoveFile(const std::string& path);

/// \brief Atomically publishes \p bytes as `<dir>/<name>`: writes them to
/// `<dir>/<name>.tmp` (replacing any stale tmp file), fsyncs and closes it,
/// renames it over the final name and fsyncs \p dir. A crash at any point
/// leaves either the old file or the new one under \p name, plus at worst an
/// orphaned tmp file that IsTempFileName recognises.
Status WriteFileAtomically(const std::string& dir, const std::string& name,
                           const std::string& bytes);

/// \brief True for the tmp-file names WriteFileAtomically uses: an orphan
/// left by a crash mid-write, which directory scans delete on sight.
bool IsTempFileName(const std::string& name);

/// \brief Creates a unique fresh directory `<prefix>XXXXXX` under
/// \p base_dir — or under $TMPDIR (fallback /tmp) when \p base_dir is empty
/// — and returns its path. Used by benches and tests for throwaway journal
/// directories; benches that *measure* fsync cost must pass a base on a
/// real filesystem (e.g. "."), since /tmp is tmpfs on many distros and
/// syncs there are free.
Result<std::string> MakeTempDir(const std::string& prefix,
                                const std::string& base_dir = "");

/// \brief Removes \p dir and everything beneath it, recursing into
/// subdirectories (sharded journal directories hold one subdir per shard).
Status RemoveDirTree(const std::string& dir);

/// \brief An exclusive advisory lock on a file (LevelDB-style LOCK file),
/// created if missing and held until Release()/destruction. Guards a
/// directory owned by a single writer against a second process (or a second
/// handle in this process) opening it concurrently.
class FileLock {
 public:
  /// Fails with FailedPrecondition when another holder has the lock.
  static Result<FileLock> Acquire(const std::string& path);

  FileLock() = default;
  FileLock(FileLock&& other) noexcept
      : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
  }
  FileLock& operator=(FileLock&& other) noexcept {
    if (this != &other) {
      Release();
      fd_ = other.fd_;
      path_ = std::move(other.path_);
      other.fd_ = -1;
    }
    return *this;
  }
  FileLock(const FileLock&) = delete;
  FileLock& operator=(const FileLock&) = delete;
  ~FileLock() { Release(); }

  bool held() const { return fd_ >= 0; }
  void Release();

 private:
  FileLock(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  int fd_ = -1;
  std::string path_;
};

/// \brief An append-only file with explicit flush/sync control.
///
/// Append buffers through stdio; Flush pushes the buffer to the OS; Sync
/// additionally fsyncs so the bytes survive a power loss. Close implies
/// Flush (but not Sync).
class AppendableFile {
 public:
  /// Opens \p path for appending, creating it if missing.
  static Result<AppendableFile> Open(const std::string& path);

  /// A closed placeholder; Append/Flush/Sync fail until move-assigned from
  /// Open().
  AppendableFile() = default;

  AppendableFile(AppendableFile&& other) noexcept
      : file_(other.file_), path_(std::move(other.path_)) {
    other.file_ = nullptr;
  }
  AppendableFile& operator=(AppendableFile&& other) noexcept {
    if (this != &other) {
      Close();
      file_ = other.file_;
      path_ = std::move(other.path_);
      other.file_ = nullptr;
    }
    return *this;
  }
  AppendableFile(const AppendableFile&) = delete;
  AppendableFile& operator=(const AppendableFile&) = delete;
  ~AppendableFile() { Close(); }

  Status Append(const char* data, size_t size);
  Status Append(const std::string& data) {
    return Append(data.data(), data.size());
  }

  /// Pushes buffered bytes to the OS (visible to readers, not yet durable).
  Status Flush();

  /// Flush + fsync: the appended bytes survive a crash afterwards.
  Status Sync();

  /// Flush + fdatasync: like Sync but may skip non-essential metadata.
  Status SyncData();

  /// The underlying POSIX descriptor (-1 when closed). For callers that
  /// need to fdatasync from another thread while the writer is quiescent.
  int fd() const;

  Status Close();

  bool is_open() const { return file_ != nullptr; }
  const std::string& path() const { return path_; }

 private:
  AppendableFile(std::FILE* file, std::string path)
      : file_(file), path_(std::move(path)) {}

  std::FILE* file_ = nullptr;
  std::string path_;
};

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_FILE_IO_H_
