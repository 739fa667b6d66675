// The per-shard user table of an IngestSession: one open-addressed row per
// user, holding both the user's live stream and its report for the open
// round, so admitting an event, sealing a round, and committing it never
// look a user up in more than one place.
//
// Layout: a power-of-two array of 32-byte slots, linear probing from the top
// bits of Hash(user). Hash is a murmur3 finalizer, deliberately unrelated to
// IngestSession::ShardOf's splitmix64 residue — every key in a shard shares
// that residue, so reusing its bits would pile a shard's keys onto a fraction
// of the slots. Erase leaves a tombstone (live slots never move, so a slot
// index stays valid until the next insert); tombstones followed by an empty
// slot are reclaimed on the spot, the rest are compacted by the next rehash.
// The table starts at kMinCapacity and grows geometrically, out of line,
// when live + tombstoned slots would pass 3/4 of the capacity.
//
// Every uint64_t is a valid key (0 and UINT64_MAX included): emptiness lives
// in the slot's ctrl byte, not in a sentinel user id.

#ifndef RETRASYN_SERVICE_USER_TABLE_H_
#define RETRASYN_SERVICE_USER_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/spatial_grid.h"

namespace retrasyn {

class UserTable {
 public:
  /// Bits of Slot::pending; meaningful only while Slot::round equals
  /// the session's open round (an older stamp means "nothing buffered").
  enum PendingFlag : uint8_t {
    kPendingQuit = 1,      ///< explicit Quit buffered this round
    kPendingLocation = 2,  ///< Enter or Move buffered this round
    kPendingEnter = 4,     ///< the buffered location is an Enter
  };

  struct Slot {
    uint64_t user = 0;
    /// Open round the pending bits were written in. Stamping instead of
    /// clearing means a round boundary touches no slot.
    int64_t round = -1;
    uint32_t stream_index = 0;  ///< live stream's engine-facing index
    CellId last_cell = 0;       ///< live stream's last reported (clamped) cell
    /// This round's report as its transition-state index, resolved at
    /// admission: e_c for an enter, m_{last_cell,c} (c clamped to a
    /// reachable cell) for a move. The commit derives the next last_cell
    /// from it.
    uint32_t state = 0;
    uint8_t ctrl = kEmpty;
    bool live = false;          ///< holds a stream from a closed round
    uint8_t pending = 0;        ///< PendingFlag bits, valid iff round is open
  };

  /// Result of Probe: the user's slot when found, otherwise the slot an
  /// Insert of that user should take.
  struct ProbeResult {
    size_t slot = 0;
    bool found = false;
  };

  static constexpr size_t kMinCapacity = 16;

  UserTable();

  /// The table's hash (murmur3 fmix64). A key's home slot is its top
  /// log2(capacity()) bits.
  static uint64_t Hash(uint64_t user) {
    user ^= user >> 33;
    user *= 0xff51afd7ed558ccdULL;
    user ^= user >> 33;
    user *= 0xc4ceb9fe1a85ec53ULL;
    user ^= user >> 33;
    return user;
  }

  // HOT PATH — one linear probe per admitted event; reads only.
  ProbeResult Probe(uint64_t user) const {
    size_t i = static_cast<size_t>(Hash(user) >> shift_);
    size_t reusable = kNoSlot;
    for (;;) {
      const Slot& s = slots_[i];
      if (s.ctrl == kFull) {
        if (s.user == user) return {i, true};
      } else if (s.ctrl == kEmpty) {
        return {reusable != kNoSlot ? reusable : i, false};
      } else if (reusable == kNoSlot) {
        reusable = i;  // first tombstone on the path
      }
      i = (i + 1) & mask_;
    }
  }

  // HOT PATH — claims the slot a failed Probe(user) returned; growth (which
  // moves every slot) happens out of line in GrowAndProbe.
  size_t Insert(const ProbeResult& probe, uint64_t user) {
    size_t i = probe.slot;
    if (slots_[i].ctrl == kEmpty) {
      if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
        i = GrowAndProbe(user);
      }
    } else {
      --tombstones_;
    }
    Slot& s = slots_[i];
    s = Slot{};
    s.user = user;
    s.ctrl = kFull;
    ++size_;
    return i;
  }

  /// Removes the row in \p slot. No other slot moves.
  void Erase(size_t slot);

  Slot& operator[](size_t slot) { return slots_[slot]; }
  const Slot& operator[](size_t slot) const { return slots_[slot]; }
  /// Whether \p slot holds a row (slot iteration: every index below
  /// capacity(), skipping the ones that do not).
  bool occupied(size_t slot) const { return slots_[slot].ctrl == kFull; }

  size_t size() const { return size_; }
  size_t capacity() const { return slots_.size(); }

 private:
  enum Ctrl : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };
  static constexpr size_t kNoSlot = ~size_t{0};

  /// Rehashes into the smallest power-of-two capacity (>= kMinCapacity)
  /// at most half full after this insert, dropping every tombstone, then
  /// returns the insert slot for \p user (absent by precondition).
  size_t GrowAndProbe(uint64_t user);

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
  size_t tombstones_ = 0;
};

static_assert(sizeof(UserTable::Slot) == 32, "two slots per cache line");

}  // namespace retrasyn

#endif  // RETRASYN_SERVICE_USER_TABLE_H_
