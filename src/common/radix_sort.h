// Stable LSD radix sort of records by a 64-bit key, one byte per pass.
//
// For runs that must come out in key order where a comparison sort's
// O(n log n) shows — IngestSession orders each shard's sealed round by user
// id with it. One counting pass builds all eight byte histograms and the AND
// and OR of the keys; a byte on which every key agrees is skipped, so
// sequential ids sharing their high bytes pay only for the bytes that
// differ. Records with equal keys keep their input order.

#ifndef RETRASYN_COMMON_RADIX_SORT_H_
#define RETRASYN_COMMON_RADIX_SORT_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace retrasyn {

/// Sorts data[0, n) stably by \p key (record -> uint64_t), ping-ponging
/// through scratch[0, n). Returns whichever of the two buffers holds the
/// sorted run; the other is left with intermediate contents. Allocates
/// nothing.
// HOT PATH — the per-round seal sort; O(n) per byte that varies.
template <typename T, typename KeyFn>
T* RadixSortByKey(T* data, T* scratch, size_t n, KeyFn key) {
  if (n < 2) return data;
  size_t counts[8][256] = {};
  uint64_t all_and = ~uint64_t{0};
  uint64_t all_or = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = key(data[i]);
    all_and &= k;
    all_or |= k;
    for (int d = 0; d < 8; ++d) ++counts[d][(k >> (8 * d)) & 0xFF];
  }
  const uint64_t varying = all_and ^ all_or;
  T* src = data;
  T* dst = scratch;
  for (int d = 0; d < 8; ++d) {
    const int shift = 8 * d;
    if (((varying >> shift) & 0xFF) == 0) continue;
    size_t* next = counts[d];
    size_t offset = 0;
    for (int b = 0; b < 256; ++b) {
      const size_t count = next[b];
      next[b] = offset;
      offset += count;
    }
    for (size_t i = 0; i < n; ++i) {
      dst[next[(key(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  return src;
}

}  // namespace retrasyn

#endif  // RETRASYN_COMMON_RADIX_SORT_H_
