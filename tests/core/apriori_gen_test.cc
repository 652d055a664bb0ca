#include "pam/core/apriori_gen.h"

#include <set>

#include <gtest/gtest.h>

#include "pam/util/prng.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

ItemsetCollection MakeCollection(int k,
                                 std::vector<std::vector<Item>> sets) {
  ItemsetCollection col(k);
  for (auto& s : sets) col.Add(ItemSpan(s.data(), s.size()));
  col.SortLexicographic();
  return col;
}

TEST(CountItemsTest, CountsOccurrences) {
  TransactionDatabase db;
  db.Add({0, 1});
  db.Add({1, 2});
  db.Add({1});
  std::vector<Count> counts = CountItems(db, {0, db.size()});
  ASSERT_EQ(counts.size(), 3u);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 1u);
}

TEST(CountItemsTest, SliceRestricts) {
  TransactionDatabase db;
  db.Add({0});
  db.Add({0, 1});
  std::vector<Count> counts = CountItems(db, {1, 2});
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 1u);
}

TEST(MakeF1Test, FiltersByMinsup) {
  ItemsetCollection f1 = MakeF1({5, 2, 7, 3}, 3);
  ASSERT_EQ(f1.size(), 3u);
  EXPECT_EQ(f1.Get(0)[0], 0u);
  EXPECT_EQ(f1.Get(1)[0], 2u);
  EXPECT_EQ(f1.Get(2)[0], 3u);
  EXPECT_EQ(f1.count(0), 5u);
}

TEST(AprioriGenTest, JoinsF1Pairs) {
  ItemsetCollection f1 = MakeCollection(1, {{1}, {3}, {5}});
  ItemsetCollection c2 = AprioriGen(f1);
  ASSERT_EQ(c2.size(), 3u);  // {1,3} {1,5} {3,5}
  EXPECT_EQ(c2.Get(0)[0], 1u);
  EXPECT_EQ(c2.Get(0)[1], 3u);
  EXPECT_EQ(c2.Get(2)[0], 3u);
  EXPECT_EQ(c2.Get(2)[1], 5u);
}

TEST(AprioriGenTest, PruneRemovesCandidatesWithInfrequentSubsets) {
  // Classic example from the Apriori paper: F3 = {123, 124, 134, 135, 234};
  // join yields {1234, 1345}; 1345 is pruned because {145} (and {345}) are
  // not frequent.
  ItemsetCollection f3 = MakeCollection(
      3, {{1, 2, 3}, {1, 2, 4}, {1, 3, 4}, {1, 3, 5}, {2, 3, 4}});
  ItemsetCollection c4 = AprioriGen(f3);
  ASSERT_EQ(c4.size(), 1u);
  EXPECT_EQ(c4.Get(0)[0], 1u);
  EXPECT_EQ(c4.Get(0)[1], 2u);
  EXPECT_EQ(c4.Get(0)[2], 3u);
  EXPECT_EQ(c4.Get(0)[3], 4u);
}

TEST(AprioriGenTest, EmptyAndSingletonInputs) {
  ItemsetCollection empty(2);
  EXPECT_TRUE(AprioriGen(empty).empty());
  ItemsetCollection one = MakeCollection(2, {{1, 2}});
  EXPECT_TRUE(AprioriGen(one).empty());
}

TEST(AprioriGenTest, OutputSortedUnique) {
  Prng rng(31);
  // Random F2 over 12 items.
  std::set<std::pair<Item, Item>> pairs;
  while (pairs.size() < 30) {
    Item a = static_cast<Item>(rng.NextBounded(12));
    Item b = static_cast<Item>(rng.NextBounded(12));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    pairs.insert({a, b});
  }
  ItemsetCollection f2(2);
  for (auto [a, b] : pairs) {
    std::vector<Item> s = {a, b};
    f2.Add(ItemSpan(s.data(), 2));
  }
  ItemsetCollection c3 = AprioriGen(f2);
  EXPECT_TRUE(c3.IsSortedUnique());
  EXPECT_EQ(c3.k(), 3);
}

// Property: every candidate's (k-1)-subsets are all in F_{k-1}, and every
// k-itemset whose (k-1)-subsets are all frequent appears as a candidate
// (soundness and completeness of apriori_gen).
TEST(AprioriGenTest, SoundAndCompleteOverRandomInput) {
  Prng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    std::set<std::vector<Item>> f2_sets;
    const Item universe = 10;
    while (f2_sets.size() < 20) {
      Item a = static_cast<Item>(rng.NextBounded(universe));
      Item b = static_cast<Item>(rng.NextBounded(universe));
      if (a == b) continue;
      if (a > b) std::swap(a, b);
      f2_sets.insert({a, b});
    }
    ItemsetCollection f2(2);
    for (const auto& s : f2_sets) f2.Add(ItemSpan(s.data(), 2));
    ItemsetCollection c3 = AprioriGen(f2);

    auto has_pair = [&f2_sets](Item a, Item b) {
      return f2_sets.count({a, b}) > 0;
    };
    // Soundness.
    for (std::size_t i = 0; i < c3.size(); ++i) {
      ItemSpan s = c3.Get(i);
      EXPECT_TRUE(has_pair(s[0], s[1]));
      EXPECT_TRUE(has_pair(s[0], s[2]));
      EXPECT_TRUE(has_pair(s[1], s[2]));
    }
    // Completeness.
    std::size_t expected = 0;
    for (Item a = 0; a < universe; ++a) {
      for (Item b = a + 1; b < universe; ++b) {
        for (Item c = b + 1; c < universe; ++c) {
          if (has_pair(a, b) && has_pair(a, c) && has_pair(b, c)) ++expected;
        }
      }
    }
    EXPECT_EQ(c3.size(), expected);
  }
}

TEST(AprioriGenTest, MatchesBruteForceJoinAndPrune) {
  // Random F_{k-1} over a small universe, dense enough that most blocks
  // join and a share of the joined sets fail the prune.
  for (int k = 3; k <= 6; ++k) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const ItemsetCollection frequent = testing::RandomCandidates(
          k - 1, 12 * static_cast<std::size_t>(k), 10,
          seed * 100 + static_cast<std::uint64_t>(k));
      const ItemsetCollection fast = AprioriGen(frequent);
      const ItemsetCollection slow = testing::AprioriGenBruteForce(frequent);
      ASSERT_EQ(fast.k(), k);
      ASSERT_EQ(fast.size(), slow.size()) << "k " << k << " seed " << seed;
      EXPECT_EQ(fast.items(), slow.items()) << "k " << k << " seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pam
