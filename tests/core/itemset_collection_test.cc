#include "pam/core/itemset_collection.h"

#include <set>

#include <gtest/gtest.h>

#include "testing/random_db.h"

namespace pam {
namespace {

std::vector<Item> ToVec(ItemSpan s) {
  return std::vector<Item>(s.begin(), s.end());
}

TEST(ItemsetCollectionTest, AddAndGet) {
  ItemsetCollection col(3);
  std::vector<Item> a = {1, 2, 3};
  std::vector<Item> b = {2, 5, 9};
  col.Add(ItemSpan(a.data(), a.size()));
  col.AddWithCount(ItemSpan(b.data(), b.size()), 7);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(ToVec(col.Get(0)), a);
  EXPECT_EQ(ToVec(col.Get(1)), b);
  EXPECT_EQ(col.count(0), 0u);
  EXPECT_EQ(col.count(1), 7u);
}

TEST(ItemsetCollectionTest, CountMutation) {
  ItemsetCollection col(1);
  Item x = 4;
  col.Add(ItemSpan(&x, 1));
  col.set_count(0, 10);
  col.add_count(0, 5);
  EXPECT_EQ(col.count(0), 15u);
}

TEST(ItemsetCollectionTest, SortLexicographicPermutesCounts) {
  ItemsetCollection col(2);
  std::vector<std::vector<Item>> sets = {{3, 4}, {1, 9}, {1, 2}, {2, 7}};
  for (std::size_t i = 0; i < sets.size(); ++i) {
    col.AddWithCount(ItemSpan(sets[i].data(), 2), 100 + i);
  }
  col.SortLexicographic();
  ASSERT_TRUE(col.IsSortedUnique());
  EXPECT_EQ(ToVec(col.Get(0)), (std::vector<Item>{1, 2}));
  EXPECT_EQ(col.count(0), 102u);
  EXPECT_EQ(ToVec(col.Get(3)), (std::vector<Item>{3, 4}));
  EXPECT_EQ(col.count(3), 100u);
}

TEST(ItemsetCollectionTest, IsSortedUniqueDetectsDuplicates) {
  ItemsetCollection col(2);
  std::vector<Item> a = {1, 2};
  col.Add(ItemSpan(a.data(), 2));
  col.Add(ItemSpan(a.data(), 2));
  EXPECT_FALSE(col.IsSortedUnique());
}

TEST(ItemsetCollectionTest, PruneBelowKeepsOrder) {
  ItemsetCollection col(1);
  for (Item x = 0; x < 10; ++x) col.AddWithCount(ItemSpan(&x, 1), x);
  col.PruneBelow(5);
  ASSERT_EQ(col.size(), 5u);
  for (std::size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(col.Get(i)[0], static_cast<Item>(5 + i));
    EXPECT_EQ(col.count(i), 5 + i);
  }
}

TEST(ItemsetCollectionTest, ShrinkToFitReleasesPrunedCapacity) {
  // C_k's buffers must not outlive the run inside F_k.
  ItemsetCollection col(3);
  for (Item x = 0; x < 1000; ++x) {
    const Item set[] = {x, x + 1000, x + 2000};
    col.AddWithCount(ItemSpan(set, 3), x % 100 == 0 ? 9 : 1);
  }
  EXPECT_GE(col.ResidentBytes(), 1000 * (3 * sizeof(Item) + sizeof(Count)));
  col.PruneBelow(2);
  col.ShrinkToFit();
  ASSERT_EQ(col.size(), 10u);
  EXPECT_EQ(col.Get(9)[0], 900u);
  EXPECT_EQ(col.count(9), 9u);
  EXPECT_LE(col.ResidentBytes(), 2 * 10 * (3 * sizeof(Item) + sizeof(Count)));
}

TEST(ItemsetCollectionTest, TakesFlatArrays) {
  ItemsetCollection col(2, {1, 2, 1, 3, 2, 3}, {7, 8, 9});
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(ToVec(col.Get(1)), (std::vector<Item>{1, 3}));
  EXPECT_EQ(col.count(2), 9u);
  EXPECT_EQ(col.items(), (std::vector<Item>{1, 2, 1, 3, 2, 3}));
}

TEST(ItemsetCollectionTest, PruneAll) {
  ItemsetCollection col(1);
  for (Item x = 0; x < 4; ++x) col.AddWithCount(ItemSpan(&x, 1), 1);
  col.PruneBelow(2);
  EXPECT_TRUE(col.empty());
}

TEST(ItemsetCollectionTest, FindBinarySearch) {
  ItemsetCollection col(2);
  for (Item a = 0; a < 8; ++a) {
    for (Item b = a + 1; b < 8; ++b) {
      std::vector<Item> s = {a, b};
      col.Add(ItemSpan(s.data(), 2));
    }
  }
  ASSERT_TRUE(col.IsSortedUnique());
  std::vector<Item> probe = {3, 6};
  const std::size_t idx = col.Find(ItemSpan(probe.data(), 2));
  ASSERT_NE(idx, ItemsetCollection::npos);
  EXPECT_EQ(ToVec(col.Get(idx)), probe);

  std::vector<Item> missing = {6, 3};  // unsorted would never be stored
  std::vector<Item> missing2 = {7, 9};
  EXPECT_EQ(col.Find(ItemSpan(missing2.data(), 2)), ItemsetCollection::npos);
}

TEST(ItemsetCollectionTest, SerializeRoundTrip) {
  ItemsetCollection col(3);
  std::vector<std::vector<Item>> sets = {{1, 2, 3}, {4, 6, 8}, {5, 7, 11}};
  for (std::size_t i = 0; i < sets.size(); ++i) {
    col.AddWithCount(ItemSpan(sets[i].data(), 3), i * 1000 + 1);
  }
  std::vector<std::uint64_t> wire = col.Serialize();
  ItemsetCollection back =
      ItemsetCollection::Deserialize(wire.data(), wire.size());
  ASSERT_EQ(back.k(), 3);
  ASSERT_EQ(back.size(), col.size());
  for (std::size_t i = 0; i < col.size(); ++i) {
    EXPECT_EQ(ToVec(back.Get(i)), ToVec(col.Get(i)));
    EXPECT_EQ(back.count(i), col.count(i));
  }
}

TEST(ItemsetCollectionTest, SerializeEmpty) {
  ItemsetCollection col(2);
  std::vector<std::uint64_t> wire = col.Serialize();
  ItemsetCollection back =
      ItemsetCollection::Deserialize(wire.data(), wire.size());
  EXPECT_EQ(back.k(), 2);
  EXPECT_TRUE(back.empty());
}

TEST(ItemsetIndexTest, FindsEveryMemberAtItsPosition) {
  for (int k = 1; k <= 5; ++k) {
    for (std::size_t n : {2u, 7u, 100u, 1000u}) {
      const ItemsetCollection col = testing::RandomCandidates(
          k, n, 60, static_cast<std::uint64_t>(k) * 1000 + n);
      const ItemsetIndex index(col);
      EXPECT_GE(index.num_slots(), 2 * col.size());
      for (std::size_t i = 0; i < col.size(); ++i) {
        EXPECT_EQ(index.Find(col.Get(i)), i) << "k " << k << " n " << n;
      }
    }
  }
}

TEST(ItemsetIndexTest, NonMembersAreNotFoundEvenWhenTheyCollide) {
  for (int k = 1; k <= 4; ++k) {
    const ItemsetCollection col =
        testing::RandomCandidates(k, 40, 100, 77 + static_cast<unsigned>(k));
    const ItemsetIndex index(col);
    const std::size_t mask = index.num_slots() - 1;
    std::set<std::vector<Item>> members;
    std::set<std::size_t> home_slots;
    for (std::size_t i = 0; i < col.size(); ++i) {
      members.insert(ToVec(col.Get(i)));
      home_slots.insert(ItemsetIndex::Hash(col.Get(i)) & mask);
    }
    // Probes drawn from the same universe: every one that is not a member
    // must miss, and a share of them start on a member's home slot.
    const ItemsetCollection probes = testing::RandomCandidates(
        k, 2000, 100, 991 + static_cast<unsigned>(k));
    std::size_t misses = 0;
    std::size_t colliding_misses = 0;
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const ItemSpan probe = probes.Get(i);
      if (members.count(ToVec(probe)) > 0) continue;
      EXPECT_EQ(index.Find(probe), ItemsetCollection::npos);
      ++misses;
      colliding_misses += home_slots.count(ItemsetIndex::Hash(probe) & mask);
    }
    EXPECT_GT(misses, 0u) << "k " << k;
    EXPECT_GT(colliding_misses, 0u) << "k " << k;
  }
}

TEST(ItemsetIndexTest, EmptySingletonAndWrongSizeProbes) {
  const std::vector<Item> a = {3, 9};
  const std::vector<Item> b = {3, 10};
  const std::vector<Item> c = {3};
  const ItemsetCollection empty(2);
  const ItemsetIndex empty_index(empty);
  EXPECT_EQ(empty_index.Find(ItemSpan(a.data(), a.size())),
            ItemsetCollection::npos);

  ItemsetCollection one(2);
  one.Add(ItemSpan(a.data(), a.size()));
  const ItemsetIndex one_index(one);
  EXPECT_EQ(one_index.Find(ItemSpan(a.data(), a.size())), 0u);
  EXPECT_EQ(one_index.Find(ItemSpan(b.data(), b.size())),
            ItemsetCollection::npos);
  // Only an itemset of the collection's arity can be a member.
  EXPECT_EQ(one_index.Find(ItemSpan(c.data(), c.size())),
            ItemsetCollection::npos);
  EXPECT_EQ(one.Find(ItemSpan(c.data(), c.size())), ItemsetCollection::npos);
}

}  // namespace
}  // namespace pam
