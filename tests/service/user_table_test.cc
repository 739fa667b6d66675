// UserTable, the open-addressed per-shard table behind IngestSession: probe,
// insert, and erase against a std::unordered_map model, through growth,
// tombstone reuse, and keys that all share one home slot.

#include "service/user_table.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "common/rng.h"

namespace retrasyn {
namespace {

/// Inserts \p user (absent) and stamps its slot with \p tag.
void InsertTagged(UserTable& table, uint64_t user, uint32_t tag) {
  const UserTable::ProbeResult probe = table.Probe(user);
  ASSERT_FALSE(probe.found) << user;
  const size_t slot = table.Insert(probe, user);
  ASSERT_EQ(table[slot].user, user);
  table[slot].stream_index = tag;
}

void ExpectMatches(const UserTable& table,
                   const std::unordered_map<uint64_t, uint32_t>& model,
                   const std::vector<uint64_t>& universe) {
  ASSERT_EQ(table.size(), model.size());
  size_t occupied = 0;
  for (size_t i = 0; i < table.capacity(); ++i) {
    if (!table.occupied(i)) continue;
    ++occupied;
    auto it = model.find(table[i].user);
    ASSERT_NE(it, model.end()) << table[i].user;
    ASSERT_EQ(table[i].stream_index, it->second);
  }
  ASSERT_EQ(occupied, model.size());
  for (uint64_t user : universe) {
    const UserTable::ProbeResult probe = table.Probe(user);
    ASSERT_EQ(probe.found, model.count(user) != 0) << user;
  }
}

TEST(UserTableTest, StartsSmallAndHoldsEveryKeyIncludingZeroAndMax) {
  UserTable table;
  EXPECT_EQ(table.capacity(), UserTable::kMinCapacity);
  EXPECT_EQ(table.size(), 0u);
  const uint64_t max = std::numeric_limits<uint64_t>::max();
  EXPECT_FALSE(table.Probe(0).found);
  EXPECT_FALSE(table.Probe(max).found);
  InsertTagged(table, 0, 10);
  InsertTagged(table, max, 20);
  ASSERT_TRUE(table.Probe(0).found);
  ASSERT_TRUE(table.Probe(max).found);
  EXPECT_EQ(table[table.Probe(0).slot].stream_index, 10u);
  EXPECT_EQ(table[table.Probe(max).slot].stream_index, 20u);
  table.Erase(table.Probe(0).slot);
  EXPECT_FALSE(table.Probe(0).found);
  EXPECT_TRUE(table.Probe(max).found);
  EXPECT_EQ(table.size(), 1u);
}

TEST(UserTableTest, CollidingKeysProbePastEachOtherAndTheirTombstones) {
  // Keys whose hashes share the top 16 bits all start probing at one home
  // slot for every capacity this test reaches.
  std::vector<uint64_t> keys;
  const uint64_t top = UserTable::Hash(1) >> 48;
  for (uint64_t k = 1; keys.size() < 10; ++k) {
    if ((UserTable::Hash(k) >> 48) == top) keys.push_back(k);
  }
  UserTable table;
  std::unordered_map<uint64_t, uint32_t> model;
  for (size_t i = 0; i < keys.size(); ++i) {
    InsertTagged(table, keys[i], static_cast<uint32_t>(i));
    model[keys[i]] = static_cast<uint32_t>(i);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model, keys));
  // Erase from the middle of the cluster: the keys behind stay reachable.
  for (size_t i : {2u, 5u, 6u}) {
    table.Erase(table.Probe(keys[i]).slot);
    model.erase(keys[i]);
  }
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model, keys));
  // Re-inserting reuses a tombstone instead of growing the cluster.
  const size_t capacity = table.capacity();
  const UserTable::ProbeResult probe = table.Probe(keys[5]);
  ASSERT_FALSE(probe.found);
  EXPECT_EQ(table.Insert(probe, keys[5]), probe.slot);
  table[probe.slot].stream_index = 55;
  model[keys[5]] = 55;
  EXPECT_EQ(table.capacity(), capacity);
  ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model, keys));
}

TEST(UserTableTest, RandomOpsThroughRepeatedRehashesMatchAMap) {
  Rng rng(7);
  UserTable table;
  std::unordered_map<uint64_t, uint32_t> model;
  std::vector<uint64_t> universe;
  for (int i = 0; i < 6000; ++i) universe.push_back(rng());
  universe.push_back(0);
  universe.push_back(std::numeric_limits<uint64_t>::max());
  int capacity_changes = 0;
  size_t capacity = table.capacity();
  // Ramp up with erasures in between, then drain most of it: the table must
  // both grow through several rehashes and shrink once tombstones dominate.
  for (int phase = 0; phase < 2; ++phase) {
    const double insert_share = phase == 0 ? 0.75 : 0.2;
    for (int step = 0; step < 20000; ++step) {
      const uint64_t user = universe[rng.UniformInt(universe.size())];
      const UserTable::ProbeResult probe = table.Probe(user);
      ASSERT_EQ(probe.found, model.count(user) != 0);
      if (!probe.found && rng.UniformDouble() < insert_share) {
        const size_t slot = table.Insert(probe, user);
        table[slot].stream_index = static_cast<uint32_t>(step);
        model[user] = static_cast<uint32_t>(step);
      } else if (probe.found && rng.UniformDouble() >= insert_share) {
        table.Erase(probe.slot);
        model.erase(user);
      }
      if (table.capacity() != capacity) {
        ++capacity_changes;
        capacity = table.capacity();
      }
      ASSERT_LE(table.size() * 4, table.capacity() * 3);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectMatches(table, model, universe));
  }
  EXPECT_GE(capacity_changes, 3);
}

}  // namespace
}  // namespace retrasyn
