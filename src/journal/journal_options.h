// Configuration surface of the event journal — split from journal_writer.h
// so RetraSynConfig (core/engine.h) can name the fsync policy without
// dragging the writer's worker-thread machinery into every translation unit
// that sees the engine.

#ifndef RETRASYN_JOURNAL_JOURNAL_OPTIONS_H_
#define RETRASYN_JOURNAL_JOURNAL_OPTIONS_H_

#include <cstdint>

#include "common/status.h"

namespace retrasyn {

/// \brief When the journal fsyncs (docs/durability.md has the trade-offs and
/// measured throughput per policy).
enum class FsyncPolicy {
  kNever = 0,
  kEveryRound = 1,
};

const char* FsyncPolicyName(FsyncPolicy policy);

/// True when the round boundary that brings the absolute closed-round count
/// to \p closed_rounds completes a checkpoint round at cadence \p
/// every_rounds (0 = checkpointing off: never). The checkpoint manager
/// captures at exactly these boundaries and the journal writer ends a
/// segment at them, so compaction can retire whole segments.
inline bool IsCheckpointRound(int64_t closed_rounds, int64_t every_rounds) {
  return every_rounds > 0 && closed_rounds % every_rounds == 0;
}

struct JournalOptions {
  FsyncPolicy fsync = FsyncPolicy::kEveryRound;
  /// The checkpoint cadence (0 = off). A segment ends at every round
  /// boundary that completes a checkpoint round and nowhere else, so with
  /// checkpointing off a writer keeps one segment for its lifetime. The
  /// service copies ServiceOptions::checkpoint_every_rounds.
  int64_t checkpoint_every_rounds = 0;
  /// Deployment fingerprint stamped into every segment header. The service
  /// layer hashes the state space + engine config into it so recovery under
  /// a different configuration fails loudly instead of silently diverging
  /// (replay would still *accept* most events — just resolve them to
  /// different cells). 0 = unchecked.
  uint64_t fingerprint = 0;

  Status Validate() const;
};

}  // namespace retrasyn

#endif  // RETRASYN_JOURNAL_JOURNAL_OPTIONS_H_
