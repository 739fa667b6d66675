#include "journal/journal_compaction.h"

#include <cstring>

#include "common/coding.h"
#include "common/crc32c.h"
#include "common/file_io.h"
#include "journal/journal_writer.h"

namespace retrasyn {

Status WriteJournalBase(const std::string& dir, const JournalBase& base) {
  std::string payload;
  payload.append(kJournalBaseMagic, sizeof(kJournalBaseMagic));
  payload.push_back(static_cast<char>(kJournalBaseFormatVersion));
  PutFixed64(base.first_surviving_index, &payload);
  PutFixed64(static_cast<uint64_t>(base.base_round), &payload);
  PutFixed32(Crc32c(payload.data(), payload.size()), &payload);
  return WriteFileAtomically(dir, kJournalBaseFileName, payload);
}

Result<JournalBase> ReadJournalBase(const std::string& dir) {
  const std::string path = dir + "/" + kJournalBaseFileName;
  // One byte past the expected size is enough to tell a longer file.
  SequentialFileReader reader;
  RETRASYN_RETURN_NOT_OK(reader.Open(path, kJournalBaseFileSize + 1));
  RETRASYN_RETURN_NOT_OK(reader.Fill());
  const char* data = reader.data();
  if (reader.size() != kJournalBaseFileSize) {
    auto size = FileSize(path);
    return Status::IOError(
        "journal BASE file " + path + " has " +
        (size.ok() ? std::to_string(size.value()) : std::string("the wrong")) +
        " bytes, expected exactly " + std::to_string(kJournalBaseFileSize));
  }
  if (std::memcmp(data, kJournalBaseMagic, sizeof(kJournalBaseMagic)) != 0) {
    return Status::IOError("journal BASE file " + path + " has a bad magic");
  }
  const uint8_t version =
      static_cast<uint8_t>(data[sizeof(kJournalBaseMagic)]);
  if (version != kJournalBaseFormatVersion) {
    return Status::IOError("journal BASE file " + path +
                           " has unsupported format version " +
                           std::to_string(version));
  }
  const size_t payload_size = kJournalBaseFileSize - 4;
  const uint32_t stored_crc = GetFixed32(data + payload_size);
  if (Crc32c(data, payload_size) != stored_crc) {
    return Status::IOError("journal BASE file " + path +
                           " fails its checksum");
  }
  JournalBase base;
  base.first_surviving_index = GetFixed64(data + 9);
  base.base_round = static_cast<int64_t>(GetFixed64(data + 17));
  if (base.base_round < 0) {
    return Status::IOError("journal BASE file " + path +
                           " declares a negative base round");
  }
  return base;
}

Status RetireJournalSegments(const std::string& dir,
                             uint64_t first_surviving_index,
                             int64_t base_round) {
  RETRASYN_RETURN_NOT_OK(
      WriteJournalBase(dir, JournalBase{first_surviving_index, base_round}));
  // BASE is durable: the prefix is dead whether or not the unlinks below
  // complete. Delete what we can and make the removals durable.
  auto names = ListDirectory(dir);
  if (!names.ok()) return names.status();
  bool removed = false;
  for (const std::string& name : names.value()) {
    uint64_t index = 0;
    if (JournalWriter::ParseSegmentFileName(name, &index) &&
        index < first_surviving_index) {
      RETRASYN_RETURN_NOT_OK(RemoveFile(dir + "/" + name));
      removed = true;
    }
  }
  return removed ? SyncDir(dir) : Status::OK();
}

}  // namespace retrasyn
