#include "pam/core/serial_apriori.h"

#include <map>
#include <set>

#include <gtest/gtest.h>

#include "pam/datagen/quest_gen.h"
#include "pam/parallel/driver.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

using testing::BruteForceFrequent;

std::map<std::vector<Item>, Count> Flatten(const FrequentItemsets& fi) {
  std::map<std::vector<Item>, Count> out;
  for (const auto& level : fi.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      ItemSpan s = level.Get(i);
      out[std::vector<Item>(s.begin(), s.end())] = level.count(i);
    }
  }
  return out;
}

TEST(SerialAprioriTest, SupermarketExample) {
  // Table I: with minsup count 3, {Diaper, Milk} is frequent with count 3.
  TransactionDatabase db = testing::SupermarketDb();
  AprioriConfig cfg;
  cfg.minsup_count = 3;
  MiningReport result = MineSerial(db, cfg);

  Count c = 0;
  std::vector<Item> dm = {testing::kDiaper, testing::kMilk};
  ASSERT_TRUE(result.frequent.Lookup(ItemSpan(dm.data(), 2), &c));
  EXPECT_EQ(c, 3u);

  // {Diaper, Milk, Beer} has support 2 < 3: not frequent.
  std::vector<Item> dmb = {testing::kBeer, testing::kDiaper, testing::kMilk};
  EXPECT_FALSE(result.frequent.Lookup(ItemSpan(dmb.data(), 3), nullptr));
}

TEST(SerialAprioriTest, MatchesBruteForceOnRandomDbs) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    TransactionDatabase db = testing::RandomDb(60, 12, 8, seed);
    AprioriConfig cfg;
    cfg.minsup_count = 5;
    MiningReport result = MineSerial(db, cfg);
    auto expected = BruteForceFrequent(db, 5, /*max_k=*/8);
    auto actual = Flatten(result.frequent);
    EXPECT_EQ(actual, expected) << "seed " << seed;
  }
}

TEST(SerialAprioriTest, MinsupFractionResolution) {
  AprioriConfig cfg;
  cfg.minsup_fraction = 0.01;
  EXPECT_EQ(cfg.ResolveMinsup(1000), 10u);
  EXPECT_EQ(cfg.ResolveMinsup(50), 1u);
  cfg.minsup_count = 7;
  EXPECT_EQ(cfg.ResolveMinsup(1000), 7u);  // absolute wins
  AprioriConfig tiny;
  tiny.minsup_fraction = 0.0001;
  EXPECT_EQ(tiny.ResolveMinsup(10), 1u);  // never below 1
}

TEST(SerialAprioriTest, MaxKStopsEarly) {
  TransactionDatabase db = testing::RandomDb(100, 8, 6, 9);
  AprioriConfig cfg;
  cfg.minsup_count = 2;
  cfg.max_k = 2;
  MiningReport result = MineSerial(db, cfg);
  EXPECT_LE(result.frequent.MaxK(), 2);
  EXPECT_LE(result.metrics.per_pass.size(), 2u);
}

TEST(SerialAprioriTest, MemoryCapProducesSameAnswerWithMoreScans) {
  TransactionDatabase db = GenerateQuest([] {
    QuestConfig q;
    q.num_transactions = 800;
    q.num_items = 60;
    q.avg_transaction_len = 8;
    q.avg_pattern_len = 3;
    q.seed = 4;
    return q;
  }());
  AprioriConfig unlimited;
  unlimited.minsup_fraction = 0.02;
  MiningReport full = MineSerial(db, unlimited);

  AprioriConfig capped = unlimited;
  capped.max_candidates_in_memory = 10;
  MiningReport chunked = MineSerial(db, capped);

  EXPECT_EQ(Flatten(full.frequent), Flatten(chunked.frequent));
  // At least one pass must have needed multiple scans.
  bool multi_scan = false;
  for (const auto& row : chunked.metrics.per_pass) {
    if (row[0].db_scans > 1) multi_scan = true;
  }
  EXPECT_TRUE(multi_scan);
}

TEST(SerialAprioriTest, PassInfoIsConsistent) {
  TransactionDatabase db = testing::RandomDb(200, 15, 8, 10);
  AprioriConfig cfg;
  cfg.minsup_count = 10;
  MiningReport result = MineSerial(db, cfg);
  const auto& passes = result.metrics.per_pass;
  ASSERT_FALSE(passes.empty());
  EXPECT_EQ(passes[0][0].k, 1);
  for (std::size_t p = 1; p < passes.size(); ++p) {
    const PassMetrics& pass = passes[p][0];
    EXPECT_EQ(pass.k, static_cast<int>(p) + 1);
    EXPECT_LE(pass.num_frequent_global, pass.num_candidates_global);
    if (p < result.frequent.levels.size()) {
      EXPECT_EQ(pass.num_frequent_global, result.frequent.levels[p].size());
    }
    EXPECT_EQ(pass.subset.transactions, db.size());
  }
}

TEST(SerialAprioriTest, EmptyDatabase) {
  TransactionDatabase db;
  AprioriConfig cfg;
  cfg.minsup_count = 1;
  MiningReport result = MineSerial(db, cfg);
  EXPECT_EQ(result.frequent.TotalCount(), 0u);
}

TEST(SerialAprioriTest, HighMinsupYieldsNothing) {
  TransactionDatabase db = testing::RandomDb(50, 20, 5, 11);
  AprioriConfig cfg;
  cfg.minsup_count = 1000;
  MiningReport result = MineSerial(db, cfg);
  EXPECT_EQ(result.frequent.TotalCount(), 0u);
}

}  // namespace
}  // namespace pam
