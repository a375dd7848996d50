// Unit tests for common/slab_map.h — the dense slab container the
// host-agent, redirector, and consistency tables are built on.
//
// The properties pinned here are the ones the protocol state relies on:
// O(1) lookup through the dense index, value-address and handle stability
// across arbitrary growth, swap-with-last erasure that keeps iteration
// compact, free-list recycling that bounds capacity by the peak
// population, and result independence from erase order.
#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/slab_map.h"

namespace radar {
namespace {

using Map = SlabMap<std::int64_t>;

TEST(SlabMapTest, InsertFindEraseBasics) {
  Map m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_FALSE(m.Contains(7));

  const Map::Handle h = m.Insert(7);
  EXPECT_NE(h, Map::kNoHandle);
  EXPECT_EQ(m.size(), 1u);
  EXPECT_TRUE(m.Contains(7));
  EXPECT_EQ(m.HandleOf(7), h);
  EXPECT_EQ(m.KeyAt(h), 7);
  EXPECT_EQ(m.At(h), 0);  // slots start default-constructed
  m.At(h) = 42;
  EXPECT_EQ(*m.Find(7), 42);

  m.Erase(7);
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.HandleOf(7), Map::kNoHandle);
  EXPECT_EQ(m.Find(7), nullptr);
  EXPECT_EQ(m.KeyAt(h), -1);  // a free slot names no key
}

TEST(SlabMapTest, HandlesAndAddressesStableAcrossGrowth) {
  Map m;
  // Span several chunks so growth allocates new chunks repeatedly.
  const int n = static_cast<int>(Map::kChunkSize) * 3 + 17;
  std::vector<Map::Handle> handles;
  std::vector<const std::int64_t*> addrs;
  for (int k = 0; k < n; ++k) {
    const Map::Handle h = m.Insert(k);
    m.At(h) = k * 10;
    handles.push_back(h);
    addrs.push_back(&m.At(h));
  }
  // Every handle and every address recorded before growth still resolves
  // to the same value afterwards: chunks never relocate.
  for (int k = 0; k < n; ++k) {
    EXPECT_EQ(m.HandleOf(k), handles[static_cast<std::size_t>(k)]);
    EXPECT_EQ(&m.At(handles[static_cast<std::size_t>(k)]),
              addrs[static_cast<std::size_t>(k)]);
    EXPECT_EQ(m.At(handles[static_cast<std::size_t>(k)]), k * 10);
  }
}

TEST(SlabMapTest, AscendingIterationIsDeterministic) {
  Map m;
  // Insert in a scrambled order; ascending iteration must be sorted by key
  // regardless.
  const std::vector<std::int64_t> keys = {9, 2, 31, 0, 17, 5, 12};
  for (const std::int64_t k : keys) m.At(m.Insert(k)) = k;
  std::vector<std::int64_t> seen;
  m.ForEachKeyAscending(
      [&](std::int64_t key, Map::Handle h) {
        EXPECT_EQ(m.KeyAt(h), key);
        EXPECT_EQ(m.At(h), key);
        seen.push_back(key);
      });
  std::vector<std::int64_t> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(seen, sorted);
}

TEST(SlabMapTest, ActiveListTracksLivePopulation) {
  Map m;
  for (std::int64_t k = 0; k < 8; ++k) m.Insert(k);
  m.Erase(3);
  m.Erase(0);
  EXPECT_EQ(m.active().size(), 6u);
  std::set<std::int64_t> live;
  for (const Map::Handle h : m.active()) live.insert(m.KeyAt(h));
  EXPECT_EQ(live, (std::set<std::int64_t>{1, 2, 4, 5, 6, 7}));
}

TEST(SlabMapTest, EraseOrderDoesNotAffectContents) {
  // Two maps with the same inserts but opposite erase orders must hold the
  // same key -> value mapping (swap-with-last permutes only the internal
  // active order, never the contents).
  Map a;
  Map b;
  for (std::int64_t k = 0; k < 32; ++k) {
    a.At(a.Insert(k)) = k * 3;
    b.At(b.Insert(k)) = k * 3;
  }
  const std::vector<std::int64_t> victims = {4, 8, 15, 16, 23};
  for (auto it = victims.begin(); it != victims.end(); ++it) a.Erase(*it);
  for (auto it = victims.rbegin(); it != victims.rend(); ++it) b.Erase(*it);
  ASSERT_EQ(a.size(), b.size());
  std::vector<std::pair<std::int64_t, std::int64_t>> ca;
  std::vector<std::pair<std::int64_t, std::int64_t>> cb;
  a.ForEachKeyAscending(
      [&](std::int64_t key, Map::Handle h) { ca.emplace_back(key, a.At(h)); });
  b.ForEachKeyAscending(
      [&](std::int64_t key, Map::Handle h) { cb.emplace_back(key, b.At(h)); });
  EXPECT_EQ(ca, cb);
}

TEST(SlabMapTest, ErasedSlotsAreRecycledAndReset) {
  SlabMap<std::string> m;
  const auto h0 = m.Insert(100);
  m.At(h0) = "stale";
  m.Erase(100);
  // Re-insert under a different key: the recycled slot must come back
  // default-constructed, never leaking the prior value.
  const auto h1 = m.Insert(200);
  EXPECT_EQ(h1, h0);  // free-list recycling reuses the slot
  EXPECT_EQ(m.At(h1), "");
  EXPECT_EQ(m.KeyAt(h1), 200);
}

TEST(SlabMapTest, CapacityBoundedByPeakPopulationAcrossChurn) {
  Map m;
  const int peak = static_cast<int>(Map::kChunkSize) + 5;
  for (int k = 0; k < peak; ++k) m.Insert(k);
  const std::uint32_t cap_at_peak = m.slot_capacity();
  // Churn the whole population several times over: capacity (and thus the
  // memory of any parallel array) must not grow past the peak.
  for (int round = 0; round < 4; ++round) {
    for (int k = 0; k < peak; ++k) m.Erase(k);
    EXPECT_EQ(m.slot_capacity(), cap_at_peak);
    for (int k = 0; k < peak; ++k) {
      const Map::Handle h = m.Insert(k);
      EXPECT_LT(h, cap_at_peak);  // always a recycled slot
    }
  }
  EXPECT_EQ(m.slot_capacity(), cap_at_peak);
}

TEST(SlabMapTest, SparseKeysOnlyGrowTheIndex) {
  Map m;
  m.Insert(0);
  m.Insert(1'000'000);
  EXPECT_EQ(m.size(), 2u);
  // Two live entries occupy two slots regardless of the key gap; only the
  // index vector spans the key space.
  EXPECT_EQ(m.slot_capacity(), 2u);
  EXPECT_TRUE(m.Contains(1'000'000));
  EXPECT_FALSE(m.Contains(999'999));
}

}  // namespace
}  // namespace radar
