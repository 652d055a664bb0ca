#include "pam/core/maximal.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

FrequentItemsets Mine(const TransactionDatabase& db, Count minsup) {
  AprioriConfig cfg;
  cfg.minsup_count = minsup;
  return MineSerial(db, cfg).frequent;
}

std::set<std::vector<Item>> Sets(const FrequentItemsets& fi) {
  std::set<std::vector<Item>> out;
  for (const auto& level : fi.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      ItemSpan s = level.Get(i);
      out.insert(std::vector<Item>(s.begin(), s.end()));
    }
  }
  return out;
}

TEST(MaximalTest, SimpleChain) {
  // {1,2,3} frequent => {1,2}, {1,3}, {2,3}, singletons all frequent but
  // only the triple is maximal (plus any frequent item outside it).
  TransactionDatabase db;
  for (int i = 0; i < 5; ++i) db.Add({1, 2, 3});
  db.Add({9});
  db.Add({9});
  FrequentItemsets frequent = Mine(db, 2);
  FrequentItemsets maximal = ExtractMaximal(frequent);
  auto sets = Sets(maximal);
  EXPECT_EQ(sets.size(), 2u);
  EXPECT_TRUE(sets.count({1, 2, 3}));
  EXPECT_TRUE(sets.count({9}));
}

TEST(MaximalTest, MaximalSetsAreAntichain) {
  TransactionDatabase db = testing::RandomDb(150, 12, 8, 61);
  FrequentItemsets maximal = ExtractMaximal(Mine(db, 8));
  auto sets = Sets(maximal);
  for (const auto& a : sets) {
    for (const auto& b : sets) {
      if (a == b) continue;
      EXPECT_FALSE(IsSortedSubset(ItemSpan(a.data(), a.size()),
                                  ItemSpan(b.data(), b.size())))
          << "maximal set contained in another maximal set";
    }
  }
}

TEST(MaximalTest, ClosureRecoversAllFrequentSets) {
  TransactionDatabase db = testing::RandomDb(150, 12, 8, 67);
  FrequentItemsets frequent = Mine(db, 8);
  FrequentItemsets maximal = ExtractMaximal(frequent);
  // Every frequent itemset is covered by some maximal superset, and
  // nothing non-frequent is.
  for (const auto& level : frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      EXPECT_TRUE(testing::CoveredByClosure(maximal, level.Get(i)));
    }
  }
  std::vector<Item> bogus = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_FALSE(
      testing::CoveredByClosure(maximal, ItemSpan(bogus.data(), bogus.size())));
}

TEST(ClosedTest, ClosedSupersetOfMaximal) {
  // Maximal sets are closed (no frequent superset at all), so
  // maximal ⊆ closed ⊆ frequent.
  TransactionDatabase db = testing::RandomDb(150, 12, 8, 71);
  FrequentItemsets frequent = Mine(db, 8);
  auto maximal = Sets(ExtractMaximal(frequent));
  auto closed = Sets(testing::ExtractClosed(frequent));
  auto all = Sets(frequent);
  for (const auto& s : maximal) EXPECT_TRUE(closed.count(s));
  for (const auto& s : closed) EXPECT_TRUE(all.count(s));
}

TEST(ClosedTest, ClosedPreservesSupportInformation) {
  // Reference definition: an itemset is closed iff no immediate superset
  // has the same count.
  TransactionDatabase db = testing::RandomDb(120, 10, 7, 73);
  FrequentItemsets frequent = Mine(db, 6);
  std::map<std::vector<Item>, Count> counts;
  for (const auto& level : frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      ItemSpan s = level.Get(i);
      counts[std::vector<Item>(s.begin(), s.end())] = level.count(i);
    }
  }
  auto closed = Sets(testing::ExtractClosed(frequent));
  for (const auto& [set, count] : counts) {
    bool has_equal_superset = false;
    for (const auto& [other, other_count] : counts) {
      if (other.size() != set.size() + 1 || other_count != count) continue;
      if (IsSortedSubset(ItemSpan(set.data(), set.size()),
                         ItemSpan(other.data(), other.size()))) {
        has_equal_superset = true;
      }
    }
    EXPECT_EQ(closed.count(set) > 0, !has_equal_superset)
        << "itemset size " << set.size();
  }
}

TEST(MaximalTest, MatchesQuadraticReferenceOnRandomDbs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const TransactionDatabase db = testing::RandomDb(150, 12, 8, 400 + seed);
    for (Count minsup : {4u, 8u, 16u}) {
      const FrequentItemsets frequent = Mine(db, minsup);
      const FrequentItemsets fast = ExtractMaximal(frequent);
      const FrequentItemsets slow = testing::ExtractMaximalQuadratic(frequent);
      ASSERT_EQ(fast.levels.size(), slow.levels.size()) << "seed " << seed;
      for (std::size_t level = 0; level < fast.levels.size(); ++level) {
        EXPECT_EQ(fast.levels[level].items(), slow.levels[level].items())
            << "seed " << seed << " minsup " << minsup << " level " << level;
        EXPECT_EQ(fast.levels[level].counts(), slow.levels[level].counts());
      }
    }
  }
}

TEST(MaximalTest, EmptyInput) {
  FrequentItemsets empty;
  EXPECT_EQ(ExtractMaximal(empty).TotalCount(), 0u);
  EXPECT_EQ(testing::ExtractClosed(empty).TotalCount(), 0u);
  std::vector<Item> probe = {1};
  EXPECT_FALSE(testing::CoveredByClosure(empty, ItemSpan(probe.data(), 1)));
}

}  // namespace
}  // namespace pam
