#include "journal/event_codec.h"

#include <cstring>

#include "common/crc32c.h"

namespace retrasyn {

const char* JournalEventTypeName(JournalEventType type) {
  switch (type) {
    case JournalEventType::kEnter:
      return "Enter";
    case JournalEventType::kMove:
      return "Move";
    case JournalEventType::kQuit:
      return "Quit";
    case JournalEventType::kTick:
      return "Tick";
  }
  return "Unknown";
}

void AppendSegmentHeader(uint64_t fingerprint, std::string* out) {
  out->append(kJournalMagic, sizeof(kJournalMagic));
  out->push_back(static_cast<char>(kJournalFormatVersion));
  PutFixed64(fingerprint, out);
}

Status CheckSegmentHeader(const char* data, size_t size, size_t* offset,
                          uint64_t* fingerprint) {
  if (size - *offset < kSegmentHeaderSize) {
    return Status::OutOfRange("segment ends inside the header");
  }
  if (std::memcmp(data + *offset, kJournalMagic, sizeof(kJournalMagic)) != 0) {
    return Status::InvalidArgument("bad journal segment magic");
  }
  const uint8_t version =
      static_cast<uint8_t>(data[*offset + sizeof(kJournalMagic)]);
  if (version != kJournalFormatVersion) {
    return Status::InvalidArgument("unsupported journal format version " +
                                   std::to_string(version));
  }
  *fingerprint = GetFixed64(data + *offset + sizeof(kJournalMagic) + 1);
  *offset += kSegmentHeaderSize;
  return Status::OK();
}

void EncodeRecord(const JournalEvent& event, std::string* out) {
  // Every payload is under 128 bytes (type byte + at most one 10-byte varint
  // and two doubles), so its length varint is the single byte reserved here
  // and patched once the payload is encoded in place behind it: no
  // temporary, so appending into a reserved buffer allocates nothing.
  const size_t length_at = out->size();
  out->push_back(0);
  const size_t payload_at = out->size();
  out->push_back(static_cast<char>(event.type));
  switch (event.type) {
    case JournalEventType::kEnter:
    case JournalEventType::kMove:
      PutVarint64(event.user, out);
      PutDouble(event.location.x, out);
      PutDouble(event.location.y, out);
      break;
    case JournalEventType::kQuit:
      PutVarint64(event.user, out);
      break;
    case JournalEventType::kTick:
      break;
  }
  const size_t payload_len = out->size() - payload_at;
  (*out)[length_at] = static_cast<char>(payload_len);
  PutFixed32(Crc32c(out->data() + payload_at, payload_len), out);
}

Status DecodeRecord(const char* data, size_t size, size_t* offset,
                    JournalEvent* event) {
  size_t pos = *offset;
  uint64_t payload_len = 0;
  if (!GetVarint64(data, size, &pos, &payload_len)) {
    return Status::OutOfRange("record ends inside the length varint");
  }
  if (payload_len == 0 || payload_len > kMaxPayloadBytes) {
    return Status::IOError("implausible record length " +
                           std::to_string(payload_len));
  }
  if (size - pos < payload_len + 4) {
    return Status::OutOfRange("record ends inside payload or checksum");
  }
  const char* payload = data + pos;
  const uint32_t expected = GetFixed32(payload + payload_len);
  const uint32_t actual = Crc32c(payload, payload_len);
  if (actual != expected) {
    return Status::IOError("record checksum mismatch");
  }

  // The frame holds; anything wrong below is a whole record that does not
  // decode.
  ByteReader r(payload, payload_len);
  JournalEvent out;
  uint8_t type_byte = 0;
  r.GetByte(&type_byte);
  switch (static_cast<JournalEventType>(type_byte)) {
    case JournalEventType::kEnter:
    case JournalEventType::kMove:
      out.type = static_cast<JournalEventType>(type_byte);
      if (!r.GetVarint(&out.user) || !r.GetDouble(&out.location.x) ||
          !r.GetDouble(&out.location.y)) {
        return Status::InvalidArgument("short Enter/Move payload");
      }
      break;
    case JournalEventType::kQuit:
      out.type = JournalEventType::kQuit;
      if (!r.GetVarint(&out.user)) {
        return Status::InvalidArgument("short Quit payload");
      }
      break;
    case JournalEventType::kTick:
      out.type = JournalEventType::kTick;
      break;
    default:
      return Status::InvalidArgument("unknown journal event type " +
                                     std::to_string(type_byte));
  }
  if (!r.done()) {
    return Status::InvalidArgument("trailing bytes in record payload");
  }
  *event = out;
  *offset = pos + payload_len + 4;
  return Status::OK();
}

}  // namespace retrasyn
