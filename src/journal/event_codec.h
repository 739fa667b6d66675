// Versioned binary wire format for the ingestion event journal.
//
// The journal records the full session event vocabulary — the exact inputs
// IngestSession accepts — so a crashed service can be reconstructed by
// replaying them through a fresh session:
//
//   Enter(user, point)   the user's stream begins at `point`
//   Move(user, point)    the user's next report
//   Quit(user)           the user leaves
//   Tick                 the open round closed; the only round boundary
//
// Type 5 is retired (an AdvanceTo record no writer emitted); do not reuse it.
//
// Segment layout (see docs/durability.md for the diagram):
//
//   +--------+---------+-------------+----------+ ... +----------+
//   | magic  | version | fingerprint | record 0 |     | record N |
//   | 8 B    | 1 B     | 8 B, LE     |          |     |          |
//   +--------+---------+-------------+----------+ ... +----------+
//
// The fingerprint identifies the deployment the journal belongs to (grid /
// state space / engine config — whatever the writer's owner hashes into
// it). Replay under a different configuration would not fail loudly — most
// events would still be *accepted*, just resolved to different cells — so
// recovery checks the fingerprint instead of silently diverging.
//
// Record framing:
//
//   +-------------+---------------------+------------------+
//   | payload_len | payload             | CRC32C(payload)  |
//   | varint      | payload_len bytes   | 4 B little-endian|
//   +-------------+---------------------+------------------+
//
//   payload = type byte + type-specific fields. User ids are varints;
//   coordinates are the raw IEEE-754 bit patterns (8 bytes little-endian),
//   because replay must relocate the *identical* double to reproduce a
//   byte-identical service. Timestamps are zigzag varints. Every field is
//   encoded with common/coding.h.
//
// Decoding classifies failures so the reader can tell a torn tail from rot:
//   kOutOfRange      — the buffer ends mid-record (clean truncation point)
//   kIOError         — the frame does not hold: a zero or implausible length,
//                      or a checksum mismatch
//   kInvalidArgument — a checksum-valid record that does not decode (unknown
//                      type, short payload, trailing bytes)
// The first two truncate the journal when they occur in the *last* segment:
// they are what an interrupted append leaves. A checksum-valid record was
// written whole, so one that does not decode is never a torn write; it fails
// the scan in every segment, as any failure before the last segment does.
// The segment header follows the same rule: only a header cut short
// (kOutOfRange) is a torn tail, while a complete header with a bad magic or
// version fails the scan everywhere.

#ifndef RETRASYN_JOURNAL_EVENT_CODEC_H_
#define RETRASYN_JOURNAL_EVENT_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/coding.h"
#include "common/status.h"
#include "geo/point.h"

namespace retrasyn {

enum class JournalEventType : uint8_t {
  kEnter = 1,
  kMove = 2,
  kQuit = 3,
  kTick = 4,
};

const char* JournalEventTypeName(JournalEventType type);

struct JournalEvent {
  JournalEventType type = JournalEventType::kTick;
  uint64_t user = 0;      ///< kEnter / kMove / kQuit
  Point location{};       ///< kEnter / kMove

  static JournalEvent Enter(uint64_t user, const Point& location) {
    JournalEvent e;
    e.type = JournalEventType::kEnter;
    e.user = user;
    e.location = location;
    return e;
  }
  static JournalEvent Move(uint64_t user, const Point& location) {
    JournalEvent e;
    e.type = JournalEventType::kMove;
    e.user = user;
    e.location = location;
    return e;
  }
  static JournalEvent Quit(uint64_t user) {
    JournalEvent e;
    e.type = JournalEventType::kQuit;
    e.user = user;
    return e;
  }
  static JournalEvent Tick() { return JournalEvent{}; }

  friend bool operator==(const JournalEvent& a, const JournalEvent& b) {
    return a.type == b.type && a.user == b.user && a.location == b.location;
  }
};

/// The 8-byte magic + 1-byte format version + 8-byte deployment
/// fingerprint every segment starts with.
inline constexpr char kJournalMagic[8] = {'R', 'S', 'Y', 'N',
                                          'J', 'R', 'N', 'L'};
inline constexpr uint8_t kJournalFormatVersion = 1;
inline constexpr size_t kSegmentHeaderSize = sizeof(kJournalMagic) + 1 + 8;

/// Appends the segment header (magic + version + fingerprint) to \p out.
void AppendSegmentHeader(uint64_t fingerprint, std::string* out);

/// Verifies the segment header at \p *offset, advances past it, and returns
/// the stored fingerprint. kOutOfRange when the buffer ends inside the
/// header (torn header), kInvalidArgument on a magic/version mismatch.
Status CheckSegmentHeader(const char* data, size_t size, size_t* offset,
                          uint64_t* fingerprint);

// --- record framing ---------------------------------------------------------

/// Payloads are tiny (type byte + at most one varint and two doubles); any
/// framed length beyond this is garbage, not a record to skip over.
inline constexpr uint64_t kMaxPayloadBytes = 1 << 10;
/// The longest frame DecodeRecord can accept: a 10-byte length varint at
/// most, the payload, the checksum. A buffer at least this long that still
/// reads kOutOfRange does so because of its bytes, not its length.
inline constexpr size_t kMaxRecordBytes = 10 + kMaxPayloadBytes + 4;

/// Appends \p event as one framed record (length varint + payload + CRC32C).
void EncodeRecord(const JournalEvent& event, std::string* out);

/// Decodes the record at \p *offset, advancing \p *offset past it on success
/// only. See the header comment for the failure classification.
Status DecodeRecord(const char* data, size_t size, size_t* offset,
                    JournalEvent* event);

}  // namespace retrasyn

#endif  // RETRASYN_JOURNAL_EVENT_CODEC_H_
