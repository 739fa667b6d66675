// RadixSortByKey against std::stable_sort on the key shapes the ingest seal
// feeds it: empty and single-record runs, keys that differ only in their top
// byte, sequential ids that share their top five bytes (so most digits are
// skipped), the extreme ids 0 and UINT64_MAX, and a user holding both a quit
// and an enter whose relative order must survive.

#include "common/radix_sort.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace retrasyn {
namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();

struct Record {
  uint64_t key = 0;
  uint32_t tag = 0;  // input position, to observe stability
  uint8_t phase = 0;

  friend bool operator==(const Record& a, const Record& b) {
    return a.key == b.key && a.tag == b.tag && a.phase == b.phase;
  }
};

std::vector<Record> Tagged(const std::vector<uint64_t>& keys) {
  std::vector<Record> records;
  for (size_t i = 0; i < keys.size(); ++i) {
    records.push_back(Record{keys[i], static_cast<uint32_t>(i), 0});
  }
  return records;
}

/// Radix-sorts a copy of \p input and expects std::stable_sort's result.
void ExpectMatchesStableSort(const std::vector<Record>& input) {
  std::vector<Record> want = input;
  std::stable_sort(want.begin(), want.end(),
                   [](const Record& a, const Record& b) {
                     return a.key < b.key;
                   });
  std::vector<Record> data = input;
  std::vector<Record> scratch(input.size());
  const Record* sorted =
      RadixSortByKey(data.data(), scratch.data(), data.size(),
                     [](const Record& r) { return r.key; });
  ASSERT_TRUE(sorted == data.data() || sorted == scratch.data());
  const std::vector<Record> got(sorted, sorted + input.size());
  EXPECT_EQ(got, want);
}

TEST(RadixSortTest, EmptyAndSingleRunsStayInPlace) {
  std::vector<Record> empty;
  Record scratch;
  EXPECT_EQ(RadixSortByKey(empty.data(), &scratch, 0,
                           [](const Record& r) { return r.key; }),
            empty.data());
  std::vector<Record> one = Tagged({42});
  EXPECT_EQ(RadixSortByKey(one.data(), &scratch, 1,
                           [](const Record& r) { return r.key; }),
            one.data());
  EXPECT_EQ(one[0], (Record{42, 0, 0}));
}

TEST(RadixSortTest, KeysDifferingOnlyInTheTopByte) {
  std::vector<uint64_t> keys;
  for (uint64_t b : {7u, 0u, 255u, 3u, 7u, 128u, 0u, 1u}) {
    keys.push_back((b << 56) | 0x00123456789abcdeull);
  }
  ExpectMatchesStableSort(Tagged(keys));
}

TEST(RadixSortTest, SequentialIdsSharingTheirTopFiveBytes) {
  // The benchmark's users: sequential ids below 2^24, shuffled the way a
  // hash table's slot order shuffles them.
  std::vector<uint64_t> keys;
  for (uint64_t u = 0; u < 5000; ++u) {
    keys.push_back(0x0000abcdef000000ull + u * 3);
  }
  Rng rng(5);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.UniformInt(i)]);
  }
  ExpectMatchesStableSort(Tagged(keys));
}

TEST(RadixSortTest, ExtremeIdsAndDuplicates) {
  ExpectMatchesStableSort(
      Tagged({kMax, 0, kMax - 1, 1, 0, kMax, 0x8000000000000000ull, 0}));
  ExpectMatchesStableSort(Tagged({kMax, kMax, kMax}));  // no digit varies
  ExpectMatchesStableSort(Tagged({kMax, 0}));           // every digit varies
}

TEST(RadixSortTest, QuitStaysAheadOfTheSameUsersEnter) {
  // The seal emits a user's quit (phase 0) right before its enter (phase
  // 1); sorting on the user alone must keep that order.
  std::vector<Record> records;
  uint32_t tag = 0;
  for (uint64_t user : {900u, 12u, 0u, 77u}) {
    records.push_back(Record{user, tag++, 0});
    if (user % 2 == 0) records.push_back(Record{user, tag++, 1});
  }
  records.push_back(Record{kMax, tag++, 0});
  records.push_back(Record{kMax, tag++, 1});
  ExpectMatchesStableSort(records);

  std::vector<Record> scratch(records.size());
  const Record* sorted =
      RadixSortByKey(records.data(), scratch.data(), records.size(),
                     [](const Record& r) { return r.key; });
  for (size_t i = 1; i < records.size(); ++i) {
    const Record& prev = sorted[i - 1];
    const Record& cur = sorted[i];
    ASSERT_TRUE(prev.key < cur.key ||
                (prev.key == cur.key && prev.phase < cur.phase))
        << "position " << i;
  }
}

TEST(RadixSortTest, RandomKeysMatchStableSort) {
  Rng rng(17);
  for (size_t n : {2u, 3u, 255u, 256u, 257u, 4096u}) {
    std::vector<uint64_t> keys;
    for (size_t i = 0; i < n; ++i) {
      // A narrow key range forces duplicates, so stability is exercised.
      keys.push_back(i % 3 == 0 ? rng() : rng() % 64);
    }
    ExpectMatchesStableSort(Tagged(keys));
  }
}

}  // namespace
}  // namespace retrasyn
