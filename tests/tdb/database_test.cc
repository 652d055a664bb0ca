#include "pam/tdb/database.h"

#include <gtest/gtest.h>

#include "testing/random_db.h"

namespace pam {
namespace {

TEST(DatabaseTest, EmptyDatabase) {
  TransactionDatabase db;
  EXPECT_TRUE(db.empty());
  EXPECT_EQ(db.size(), 0u);
  EXPECT_EQ(db.TotalItems(), 0u);
  EXPECT_EQ(db.NumItems(), 0u);
  EXPECT_DOUBLE_EQ(db.AverageLength(), 0.0);
}

TEST(DatabaseTest, AddSortsAndDeduplicates) {
  TransactionDatabase db;
  db.Add({5, 1, 3, 1, 5});
  ASSERT_EQ(db.size(), 1u);
  ItemSpan tx = db.Transaction(0);
  ASSERT_EQ(tx.size(), 3u);
  EXPECT_EQ(tx[0], 1u);
  EXPECT_EQ(tx[1], 3u);
  EXPECT_EQ(tx[2], 5u);
}

TEST(DatabaseTest, NumItemsTracksLargestId) {
  TransactionDatabase db;
  db.Add({2});
  EXPECT_EQ(db.NumItems(), 3u);
  db.Add({7, 1});
  EXPECT_EQ(db.NumItems(), 8u);
  db.Add({0});
  EXPECT_EQ(db.NumItems(), 8u);
}

TEST(DatabaseTest, NumItemsDoesNotWrapAtLargestId) {
  TransactionDatabase db;
  db.Add({1, ~Item{0}});
  EXPECT_EQ(db.NumItems(), std::size_t{1} << 32);
}

TEST(DatabaseTest, AverageLength) {
  TransactionDatabase db;
  db.Add({1, 2});
  db.Add({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(db.AverageLength(), 3.0);
}

TEST(DatabaseTest, SupermarketSupportCounts) {
  // Table I of the paper: sigma(Diaper, Milk) = 3 and
  // sigma(Diaper, Milk, Beer) = 2.
  TransactionDatabase db = testing::SupermarketDb();
  using testing::kBeer;
  using testing::kDiaper;
  using testing::kMilk;
  auto support = [&db](std::vector<Item> set) {
    std::sort(set.begin(), set.end());
    Count c = 0;
    for (std::size_t t = 0; t < db.size(); ++t) {
      if (IsSortedSubset(ItemSpan(set.data(), set.size()),
                         db.Transaction(t))) {
        ++c;
      }
    }
    return c;
  };
  EXPECT_EQ(support({kDiaper, kMilk}), 3u);
  EXPECT_EQ(support({kDiaper, kMilk, kBeer}), 2u);
}

TEST(DatabaseTest, RankSliceCoversAllWithoutOverlap) {
  TransactionDatabase db = testing::RandomDb(103, 20, 6, 1);
  for (int p : {1, 2, 3, 7, 16, 103, 200}) {
    std::size_t covered = 0;
    std::size_t prev_end = 0;
    for (int r = 0; r < p; ++r) {
      auto s = db.RankSlice(r, p);
      EXPECT_EQ(s.begin, prev_end);
      prev_end = s.end;
      covered += s.size();
    }
    EXPECT_EQ(prev_end, db.size()) << "p=" << p;
    EXPECT_EQ(covered, db.size()) << "p=" << p;
  }
}

TEST(DatabaseTest, RankSliceBalanced) {
  TransactionDatabase db = testing::RandomDb(100, 20, 6, 2);
  for (int p : {3, 7, 9}) {
    std::size_t min_size = db.size();
    std::size_t max_size = 0;
    for (int r = 0; r < p; ++r) {
      auto s = db.RankSlice(r, p);
      min_size = std::min(min_size, s.size());
      max_size = std::max(max_size, s.size());
    }
    EXPECT_LE(max_size - min_size, 1u) << "p=" << p;
  }
}

TEST(DatabaseTest, WireBytesCountsItemsAndLengths) {
  TransactionDatabase db;
  db.Add({1, 2, 3});
  db.Add({4});
  // (3 items + 1 length) + (1 item + 1 length) = 6 words.
  EXPECT_EQ(db.WireBytes({0, 2}), 6 * sizeof(std::uint32_t));
  EXPECT_EQ(db.WireBytes({1, 2}), 2 * sizeof(std::uint32_t));
}

TEST(DatabaseTest, AddSortedPreservesInput) {
  TransactionDatabase db;
  std::vector<Item> items = {2, 4, 9};
  db.AddSorted(ItemSpan(items.data(), items.size()));
  ItemSpan tx = db.Transaction(0);
  EXPECT_EQ(std::vector<Item>(tx.begin(), tx.end()), items);
}

TEST(DatabaseTest, FromCsrTakesTheArrays) {
  auto db = TransactionDatabase::FromCsr({0, 2, 2, 5}, {1, 4, 0, 3, 9});
  ASSERT_TRUE(db.ok()) << db.status().message();
  ASSERT_EQ(db->size(), 3u);
  EXPECT_TRUE(db->Transaction(1).empty());
  ItemSpan tx = db->Transaction(2);
  EXPECT_EQ(std::vector<Item>(tx.begin(), tx.end()),
            (std::vector<Item>{0, 3, 9}));
  EXPECT_EQ(db->NumItems(), 10u);
  EXPECT_EQ(TransactionDatabase::FromCsr({0}, {})->NumItems(), 0u);
}

// Each input passes every check before the one it names. Rows are checked
// in order, each for sortedness and then for its range, so the last case
// reports row 0's range before row 1's order.
TEST(DatabaseTest, FromCsrChecksInvariantsInOrder) {
  struct Case {
    std::vector<std::size_t> offsets;
    std::vector<Item> items;
    const char* error;
  };
  const Case cases[] = {
      {{}, {}, "corrupt offsets"},
      {{1, 2}, {1, 2}, "corrupt offsets"},
      {{0, 1}, {1, 2}, "corrupt offsets"},
      // Row 0 would run past the items; the whole array is refused first.
      {{0, 9, 2}, {2, 1}, "non-monotone offsets"},
      {{0, 2, 1, 2}, {1, 2}, "non-monotone offsets"},
      {{0, 2}, {2, 2}, "unsorted transaction"},
      {{0, 1, 3},
       {kMaxItemId + 1, 5, 4},
       "item id out of range [0, 16777215]"},
  };
  for (const Case& c : cases) {
    auto db = TransactionDatabase::FromCsr(c.offsets, c.items);
    ASSERT_FALSE(db.ok()) << c.error;
    EXPECT_EQ(db.status().message(), c.error);
  }
}

}  // namespace
}  // namespace pam
