#include "service/user_table.h"

#include <utility>

namespace retrasyn {

UserTable::UserTable() {
  slots_.resize(kMinCapacity);
  mask_ = kMinCapacity - 1;
  shift_ = 64 - __builtin_ctzll(kMinCapacity);
}

void UserTable::Erase(size_t slot) {
  slots_[slot].ctrl = kTombstone;
  --size_;
  ++tombstones_;
  // A run of tombstones ending at an empty slot stops no probe the empty slot
  // would not stop too, so it can go back to empty right away.
  if (slots_[(slot + 1) & mask_].ctrl != kEmpty) return;
  for (size_t i = slot; slots_[i].ctrl == kTombstone; i = (i - 1) & mask_) {
    slots_[i].ctrl = kEmpty;
    --tombstones_;
  }
}

size_t UserTable::GrowAndProbe(uint64_t user) {
  size_t capacity = kMinCapacity;
  while (capacity < 2 * (size_ + 1)) capacity *= 2;
  std::vector<Slot> old(capacity);
  old.swap(slots_);
  mask_ = capacity - 1;
  shift_ = 64 - __builtin_ctzll(capacity);
  tombstones_ = 0;
  for (const Slot& s : old) {
    if (s.ctrl != kFull) continue;
    size_t i = static_cast<size_t>(Hash(s.user) >> shift_);
    while (slots_[i].ctrl != kEmpty) i = (i + 1) & mask_;
    slots_[i] = s;
  }
  return Probe(user).slot;
}

}  // namespace retrasyn
