// Versioned binary format for service checkpoints and spilled history.
//
// A checkpoint captures everything recovery needs to reconstruct the service
// at a round boundary without replaying the journal prefix behind it: the
// engine's full dense state (RNG, model, synthesizer, allocation histories,
// budget audit, per-index bookkeeping), the ingest session's index-lifecycle
// state, and the manifest of history spill files holding closed synthetic
// streams that were moved out of memory. Both checkpoint and spill files use
// the same CRC-framed single-record layout (the journal's framing idiom,
// inflated to one record per file):
//
//   +--------+---------+-------------+----------+--------+-----------------+
//   | magic  | version | fingerprint | body_len | body   | CRC32C(body)    |
//   | 8 B    | 1 B     | 8 B, LE     | 8 B, LE  |        | 4 B, LE         |
//   +--------+---------+-------------+----------+--------+-----------------+
//
// A reader requires the file size to be exactly header + body_len + 4: a
// torn write (crash mid-append of the tmp file) can never pass, and the
// atomic tmp + rename + directory-fsync publication (WriteFileAtomically in
// common/file_io.h) means a file under its final name is either complete or
// absent. The fingerprint is the same deployment hash the journal stamps
// into its segment headers — a checkpoint is only loadable into the
// deployment that wrote it.
//
// Bodies encode through common/coding.h, like the journal: varints for counts
// and indices, zigzag varints for signed timestamps, and raw IEEE-754 bit
// patterns for doubles — recovery must reinstate the *identical* double to
// stay byte-identical with full replay.

#ifndef RETRASYN_CHECKPOINT_CHECKPOINT_FORMAT_H_
#define RETRASYN_CHECKPOINT_CHECKPOINT_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/engine.h"
#include "service/ingest_session.h"
#include "stream/cell_stream.h"

namespace retrasyn {

/// \brief A complete checkpoint: the service's state after `round` closed
/// rounds (== the session's open round at capture).
struct CheckpointState {
  int64_t round = 0;
  /// The canonical SpatialGrid::Describe() bytes of the grid the checkpoint
  /// was captured under, round-tripped exactly (v2+). Recovery refuses a
  /// checkpoint whose grid differs from the running deployment's — the dense
  /// engine state is meaningless under any other cell layout.
  std::string grid_describe;
  EngineCheckpointState engine;
  SessionCheckpointState session;
  /// Rounds whose history spill files this checkpoint references, ascending.
  /// SnapshotRelease after recovery serves closed-stream history from these
  /// files; a referenced file that is missing makes the checkpoint unusable.
  std::vector<int64_t> spill_rounds;
};

inline constexpr char kCheckpointMagic[8] = {'R', 'S', 'Y', 'N',
                                             'C', 'K', 'P', 'T'};
inline constexpr char kHistoryMagic[8] = {'R', 'S', 'Y', 'N',
                                          'H', 'I', 'S', 'T'};
// v2: the body opens with the grid's Describe() bytes (see CheckpointState).
inline constexpr uint8_t kCheckpointFormatVersion = 2;
/// magic + version + fingerprint + body_len.
inline constexpr size_t kCheckpointHeaderSize = sizeof(kCheckpointMagic) + 1 +
                                                8 + 8;

/// `checkpoint-%08lld.ckpt` for the state after \p round closed rounds.
std::string CheckpointFileName(int64_t round);
bool ParseCheckpointFileName(const std::string& name, int64_t* round);

/// `history-%08lld.hst` for the streams spilled at checkpoint \p round.
std::string HistoryFileName(int64_t round);
bool ParseHistoryFileName(const std::string& name, int64_t* round);

// --- body codecs ------------------------------------------------------------

void EncodeCheckpointBody(const CheckpointState& state, std::string* out);
/// kIOError on truncated or malformed bytes (the CRC already passed, so
/// damage here means a format bug or silent rot — either way unusable).
Status DecodeCheckpointBody(const char* data, size_t size,
                            CheckpointState* state);

void EncodeHistoryBody(const std::vector<CellStream>& streams,
                       std::string* out);
Status DecodeHistoryBody(const char* data, size_t size,
                         std::vector<CellStream>* streams);

// --- framed file I/O --------------------------------------------------------

/// \brief Atomically publishes `<dir>/<name>` with the framed layout above
/// (through WriteFileAtomically).
Status WriteFramedFile(const std::string& dir, const std::string& name,
                       const char magic[8], uint64_t fingerprint,
                       const std::string& body);

/// \brief Reads and structurally verifies a framed file, returning its body.
/// kIOError on any damage (size mismatch, bad magic/version, CRC failure).
/// The stored fingerprint is returned through \p fingerprint for the caller
/// to police — a fingerprint mismatch is a *deployment* error, not file
/// damage, and deserves a different failure mode than corruption.
Result<std::string> ReadFramedFile(const std::string& path,
                                   const char magic[8], uint64_t* fingerprint);

}  // namespace retrasyn

#endif  // RETRASYN_CHECKPOINT_CHECKPOINT_FORMAT_H_
