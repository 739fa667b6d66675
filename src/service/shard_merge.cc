#include "service/shard_merge.h"

#include <algorithm>

#include "common/logging.h"

namespace retrasyn {

int SealedRunMerger::ChunkCount(size_t entries, int executors) {
  if (executors <= 1) return 1;
  const size_t by_size = std::max<size_t>(1, entries / kMinChunkEntries);
  return static_cast<int>(std::min<size_t>(
      by_size, static_cast<size_t>(executors) * kChunksPerExecutor));
}

void SealedRunMerger::Merge(const std::vector<SealedRun>& runs,
                            int num_chunks, ThreadPool* pool,
                            StreamIndexCursor& cursor, TimestampBatch* batch,
                            std::vector<uint32_t>* quit_indices) {
  RETRASYN_CHECK(num_chunks >= 1);
  runs_ = &runs;
  collect_quits_ = quit_indices != nullptr;
  const size_t merged = Split(num_chunks);
  batch->observations.resize(merged);
  out_ = batch->observations.data();
  if (pool != nullptr) {
    pool->ParallelFor(num_chunks, [this](int c) { MergeChunk(c); });
  } else {
    for (int c = 0; c < num_chunks; ++c) MergeChunk(c);
  }

  // Serial, in chunk order — which is merged order: enters draw their stream
  // indices and quits join the output list.
  size_t quits = 0;
  for (const Chunk& chunk : chunks_) {
    SealedEntry* const* enters = enters_.data() + chunk.enter_begin;
    for (size_t i = 0; i < chunk.num_enters; ++i) {
      SealedEntry& e = *enters[i];
      const uint32_t position = e.stream_index;  // parked by MergeChunk
      e.stream_index = cursor.Next();  // committed to the shard on success
      out_[position].user_index = e.stream_index;
    }
    quits += chunk.num_quits;
  }
  if (collect_quits_) {
    quit_indices->clear();
    quit_indices->reserve(quits);
    for (const Chunk& chunk : chunks_) {
      const uint32_t* region = quits_.data() + chunk.quit_begin;
      quit_indices->insert(quit_indices->end(), region,
                           region + chunk.num_quits);
    }
  }
  batch->num_active = static_cast<uint32_t>(merged - quits);
}

size_t SealedRunMerger::Split(int num_chunks) {
  const std::vector<SealedRun>& runs = *runs_;
  const size_t k = runs.size();
  const size_t chunks = static_cast<size_t>(num_chunks);
  bounds_.resize((chunks + 1) * k);
  chunks_.resize(chunks);
  // Every chunk's cursors start on a cache line of their own: a chunk
  // advances one at every step, and a line shared with a neighbouring chunk
  // ping-pongs between cores for the whole merge.
  constexpr size_t kPerLine = kCacheLine / sizeof(Cursor);
  cursor_stride_ = (k + kPerLine - 1) / kPerLine * kPerLine;
  cursors_.resize(chunks * cursor_stride_ + kPerLine);
  const size_t misalign =
      reinterpret_cast<uintptr_t>(cursors_.data()) % kCacheLine;
  cursor_base_ =
      cursors_.data() + (misalign == 0 ? 0 : (kCacheLine - misalign) /
                                                 sizeof(Cursor));

  // Pivot users at even positions of the largest run; every run splits at
  // its lower_bound of each pivot. Pivots never decrease, so neither do the
  // bounds; a repeated pivot leaves an empty chunk.
  size_t largest = 0;
  for (size_t r = 0; r < k; ++r) {
    bounds_[r] = 0;
    bounds_[chunks * k + r] = runs[r].size;
    if (runs[r].size > runs[largest].size) largest = r;
  }
  for (size_t c = 1; c < chunks; ++c) {
    size_t* row = bounds_.data() + c * k;
    const size_t* prev = row - k;
    if (k == 0 || runs[largest].size == 0) {
      std::fill(row, row + k, size_t{0});
      continue;
    }
    const uint64_t pivot =
        runs[largest].entries[c * runs[largest].size / chunks].user;
    for (size_t r = 0; r < k; ++r) {
      const SealedEntry* begin = runs[r].entries;
      const SealedEntry* it = std::lower_bound(
          begin + prev[r], begin + runs[r].size, pivot,
          [](const SealedEntry& e, uint64_t user) { return e.user < user; });
      row[r] = static_cast<size_t>(it - begin);
    }
  }

  // Output offsets are run positions summed; each scratch region holds at
  // most the chunk's entries of a kind, and no more than a run seals.
  size_t out = 0;
  size_t quit_slots = 0;
  size_t enter_slots = 0;
  for (size_t c = 0; c < chunks; ++c) {
    Chunk& chunk = chunks_[c];
    chunk.out_begin = out;
    chunk.quit_begin = quit_slots;
    chunk.enter_begin = enter_slots;
    for (size_t r = 0; r < k; ++r) {
      const size_t len = bounds_[(c + 1) * k + r] - bounds_[c * k + r];
      out += len;
      if (collect_quits_) quit_slots += std::min(len, runs[r].num_quits);
      enter_slots += std::min(len, runs[r].num_enters);
    }
  }
  // MergeChunk parks an enter's output position in its 32-bit stream_index.
  RETRASYN_CHECK(out <= UINT32_MAX);
  quits_.resize(quit_slots);
  enters_.resize(enter_slots);
  return out;
}

// HOT PATH — one user-id range of every run, merged by a linear min over the
// range's cursors (users are disjoint across runs, so a user's quit and
// location leave one run in order). Writes only its own output slice, scratch
// regions and Chunk.
void SealedRunMerger::MergeChunk(int c) {
  const std::vector<SealedRun>& runs = *runs_;
  const size_t k = runs.size();
  const size_t ci = static_cast<size_t>(c);
  Chunk& chunk = chunks_[ci];
  Cursor* const cursors = cursor_base_ + ci * cursor_stride_;
  size_t live = 0;
  for (size_t r = 0; r < k; ++r) {
    SealedEntry* const base = runs[r].entries;
    const size_t begin = bounds_[ci * k + r];
    const size_t end = bounds_[(ci + 1) * k + r];
    if (begin < end) cursors[live++] = Cursor{base + begin, base + end};
  }
  uint32_t* const quits = quits_.data() + chunk.quit_begin;
  SealedEntry** const enters = enters_.data() + chunk.enter_begin;
  size_t num_quits = 0;
  size_t num_enters = 0;
  size_t pos = chunk.out_begin;
  while (live > 0) {
    size_t min = 0;
    for (size_t i = 1; i < live; ++i) {
      RETRASYN_DCHECK(cursors[i].it->user != cursors[min].it->user);
      if (cursors[i].it->user < cursors[min].it->user) min = i;
    }
    SealedEntry& e = *cursors[min].it++;
    if (cursors[min].it == cursors[min].end) cursors[min] = cursors[--live];
    UserObservation& obs = out_[pos];
    obs.user_index = e.stream_index;  // an enter's is set by the serial pass
    obs.state = e.state;
    obs.is_quit = e.phase == 0;
    obs.is_enter = e.is_enter;
    if (e.phase == 0) {
      if (collect_quits_) quits[num_quits] = e.stream_index;
      ++num_quits;
    } else if (e.is_enter) {
      e.stream_index = static_cast<uint32_t>(pos);  // until the serial pass
      enters[num_enters++] = &e;
    }
    ++pos;
  }
  chunk.num_quits = num_quits;
  chunk.num_enters = num_enters;
}

}  // namespace retrasyn
