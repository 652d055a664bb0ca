#include "pam/datagen/quest_gen.h"

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"

namespace pam {
namespace {

TEST(QuestGenTest, ProducesRequestedTransactionCount) {
  QuestConfig cfg;
  cfg.num_transactions = 500;
  cfg.num_items = 100;
  TransactionDatabase db = GenerateQuest(cfg);
  EXPECT_EQ(db.size(), 500u);
}

TEST(QuestGenTest, ItemsStayInRange) {
  QuestConfig cfg;
  cfg.num_transactions = 300;
  cfg.num_items = 50;
  TransactionDatabase db = GenerateQuest(cfg);
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (Item x : db.Transaction(t)) EXPECT_LT(x, 50u);
  }
}

TEST(QuestGenTest, DeterministicForSameSeed) {
  QuestConfig cfg;
  cfg.num_transactions = 200;
  cfg.seed = 99;
  TransactionDatabase a = GenerateQuest(cfg);
  TransactionDatabase b = GenerateQuest(cfg);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.items(), b.items());
  EXPECT_EQ(a.offsets(), b.offsets());
}

TEST(QuestGenTest, DifferentSeedsProduceDifferentData) {
  QuestConfig cfg;
  cfg.num_transactions = 200;
  cfg.seed = 1;
  TransactionDatabase a = GenerateQuest(cfg);
  cfg.seed = 2;
  TransactionDatabase b = GenerateQuest(cfg);
  EXPECT_NE(a.items(), b.items());
}

TEST(QuestGenTest, AverageLengthNearTarget) {
  // T15 data should average close to 15 items per transaction (pattern
  // corruption and the fit rule skew it somewhat; allow a generous band).
  QuestConfig cfg;
  cfg.num_transactions = 5000;
  cfg.num_items = 1000;
  cfg.avg_transaction_len = 15.0;
  TransactionDatabase db = GenerateQuest(cfg);
  EXPECT_GT(db.AverageLength(), 8.0);
  EXPECT_LT(db.AverageLength(), 22.0);
}

TEST(QuestGenTest, ContainsFrequentPatterns) {
  // Pattern reuse must create itemsets far more frequent than independent
  // uniform choice would: the most frequent pair should clear a multiple of
  // the uniform expectation.
  QuestConfig cfg;
  cfg.num_transactions = 3000;
  cfg.num_items = 200;
  cfg.avg_transaction_len = 10.0;
  cfg.num_patterns = 50;
  TransactionDatabase db = GenerateQuest(cfg);

  // Count pair frequencies via a coarse sample of item pairs from the
  // first transactions.
  std::vector<std::vector<Count>> pair_counts(
      200, std::vector<Count>(200, 0));
  for (std::size_t t = 0; t < db.size(); ++t) {
    ItemSpan tx = db.Transaction(t);
    for (std::size_t i = 0; i < tx.size(); ++i) {
      for (std::size_t j = i + 1; j < tx.size(); ++j) {
        ++pair_counts[tx[i]][tx[j]];
      }
    }
  }
  Count max_pair = 0;
  for (const auto& row : pair_counts) {
    for (Count c : row) max_pair = std::max(max_pair, c);
  }
  // Uniform-independent expectation per ordered pair is roughly
  // N * (T/num_items)^2 ~= 3000 * (10/200)^2 = 7.5.
  EXPECT_GT(max_pair, 75u);
}

TEST(QuestGenTest, NoEmptyTransactions) {
  QuestConfig cfg;
  cfg.num_transactions = 1000;
  cfg.corruption_mean = 0.9;  // aggressive corruption still never empties
  TransactionDatabase db = GenerateQuest(cfg);
  for (std::size_t t = 0; t < db.size(); ++t) {
    EXPECT_GE(db.Transaction(t).size(), 1u);
  }
}

TEST(QuestGenTest, PresetFamiliesTrackTheirT) {
  // The Tx.Iy presets must produce average transaction lengths ordered
  // by (and roughly near) their nominal T.
  const std::size_t n = 3000;
  const double t5 = GenerateQuest(QuestT5I2(n, 7)).AverageLength();
  const double t10 = GenerateQuest(QuestT10I4(n, 7)).AverageLength();
  const double t15 = GenerateQuest(QuestT15I6(n, 7)).AverageLength();
  const double t20 = GenerateQuest(QuestT20I6(n, 7)).AverageLength();
  EXPECT_LT(t5, t10);
  EXPECT_LT(t10, t15);
  EXPECT_LT(t15, t20);
  EXPECT_NEAR(t5, 5.0, 2.5);
  EXPECT_NEAR(t20, 20.0, 8.0);
}

TEST(QuestGenTest, PresetsMineDeeperWithLongerPatterns) {
  // I6 families support longer frequent itemsets than I2 families at the
  // same threshold.
  AprioriConfig cfg;
  cfg.minsup_fraction = 0.01;
  cfg.max_k = 8;
  const int deep =
      MineSerial(GenerateQuest(QuestT15I6(2000, 3)), cfg).frequent.MaxK();
  const int shallow =
      MineSerial(GenerateQuest(QuestT5I2(2000, 3)), cfg).frequent.MaxK();
  EXPECT_GT(deep, shallow);
}

TEST(QuestGenTest, HotPrefixOffIsStreamIdentical) {
  // The skewed-prefix knob must leave the generator's random stream
  // untouched when disabled, whichever half of the pair is zero — existing
  // seeds keep producing bit-identical databases.
  QuestConfig base;
  base.num_transactions = 400;
  base.num_items = 200;
  base.seed = 31;
  const TransactionDatabase plain = GenerateQuest(base);

  QuestConfig zero_mass = base;
  zero_mass.hot_items = 40;
  zero_mass.hot_item_mass = 0.0;
  QuestConfig zero_items = base;
  zero_items.hot_items = 0;
  zero_items.hot_item_mass = 0.5;
  for (const QuestConfig& cfg : {zero_mass, zero_items}) {
    const TransactionDatabase db = GenerateQuest(cfg);
    EXPECT_EQ(db.items(), plain.items());
    EXPECT_EQ(db.offsets(), plain.offsets());
  }
}

TEST(QuestGenTest, HotPrefixConcentratesMass) {
  QuestConfig cfg;
  cfg.num_transactions = 2000;
  cfg.num_items = 1000;
  cfg.seed = 31;
  const auto hot_fraction = [&](Item hot_items, double mass) {
    QuestConfig c = cfg;
    c.hot_items = hot_items;
    c.hot_item_mass = mass;
    const TransactionDatabase db = GenerateQuest(c);
    std::size_t hot = 0;
    std::size_t total = 0;
    for (std::size_t t = 0; t < db.size(); ++t) {
      for (Item x : db.Transaction(t)) {
        total += 1;
        if (x < hot_items) hot += 1;
      }
    }
    return static_cast<double>(hot) / static_cast<double>(total);
  };
  // Uniform draws land in a 40-item prefix of a 1000-item universe ~4% of
  // the time; redirecting half the draws should concentrate far more.
  EXPECT_LT(hot_fraction(40, 0.0), 0.20);
  EXPECT_GT(hot_fraction(40, 0.5), 0.40);
  // More mass, more concentration.
  EXPECT_GT(hot_fraction(40, 0.8), hot_fraction(40, 0.4));
}

TEST(QuestGenTest, TinyItemUniverse) {
  QuestConfig cfg;
  cfg.num_transactions = 100;
  cfg.num_items = 3;
  cfg.avg_transaction_len = 5.0;
  cfg.avg_pattern_len = 2.0;
  TransactionDatabase db = GenerateQuest(cfg);
  EXPECT_EQ(db.size(), 100u);
  EXPECT_LE(db.NumItems(), 3u);
}

}  // namespace
}  // namespace pam
