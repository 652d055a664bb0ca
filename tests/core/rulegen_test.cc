#include "pam/core/rulegen.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

using RuleKey = std::pair<std::vector<Item>, std::vector<Item>>;

std::set<RuleKey> Keys(const std::vector<Rule>& rules) {
  std::set<RuleKey> out;
  for (const Rule& r : rules) out.insert({r.antecedent, r.consequent});
  return out;
}

FrequentItemsets MineSupermarket(Count minsup) {
  AprioriConfig cfg;
  cfg.minsup_count = minsup;
  return MineSerial(testing::SupermarketDb(), cfg).frequent;
}

TEST(RuleGenTest, PaperExampleRule) {
  // {Diaper, Milk} => {Beer}: support 40%, confidence 66%. With minsup
  // count 2 the triple {Beer, Diaper, Milk} is frequent, so the rule is
  // generated at min_confidence 0.6.
  FrequentItemsets frequent = MineSupermarket(2);
  std::vector<Rule> rules = GenerateRules(frequent, 5, 0.6);

  bool found = false;
  for (const Rule& r : rules) {
    if (r.antecedent ==
            std::vector<Item>{testing::kDiaper, testing::kMilk} &&
        r.consequent == std::vector<Item>{testing::kBeer}) {
      found = true;
      EXPECT_NEAR(r.support, 0.4, 1e-9);
      EXPECT_NEAR(r.confidence, 2.0 / 3.0, 1e-9);
      EXPECT_EQ(r.joint_count, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RuleGenTest, ConfidenceThresholdFilters) {
  FrequentItemsets frequent = MineSupermarket(2);
  std::vector<Rule> all = GenerateRules(frequent, 5, 0.0);
  std::vector<Rule> strict = GenerateRules(frequent, 5, 0.9);
  EXPECT_GT(all.size(), strict.size());
  for (const Rule& r : strict) EXPECT_GE(r.confidence, 0.9);
}

// Every rule, position by position: the same sets, counts and doubles in
// the same order.
void ExpectSameRules(const std::vector<Rule>& fast,
                     const std::vector<Rule>& slow, const std::string& label) {
  ASSERT_EQ(fast.size(), slow.size()) << label;
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_EQ(fast[i].antecedent, slow[i].antecedent) << label << " #" << i;
    EXPECT_EQ(fast[i].consequent, slow[i].consequent) << label << " #" << i;
    EXPECT_EQ(fast[i].joint_count, slow[i].joint_count) << label << " #" << i;
    EXPECT_EQ(fast[i].support, slow[i].support) << label << " #" << i;
    EXPECT_EQ(fast[i].confidence, slow[i].confidence) << label << " #" << i;
  }
}

TEST(RuleGenTest, MatchesBruteForceOnRandomDbs) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TransactionDatabase db = testing::RandomDb(80, 10, 7, seed);
    AprioriConfig cfg;
    cfg.minsup_count = 6;
    FrequentItemsets frequent = MineSerial(db, cfg).frequent;
    for (double conf : {0.3, 0.6, 0.9}) {
      std::vector<Rule> fast = GenerateRules(frequent, db.size(), conf);
      std::vector<Rule> slow =
          testing::GenerateRulesBruteForce(frequent, db.size(), conf);
      EXPECT_EQ(Keys(fast), Keys(slow))
          << "seed " << seed << " conf " << conf;
      ExpectSameRules(fast, slow,
                      "seed " + std::to_string(seed) + " conf " +
                          std::to_string(conf));
    }
  }
}

TEST(RuleGenTest, MatchesBruteForceOrderUnderManyTies) {
  // A few distinct transactions, each repeated: whole families of rules
  // share one confidence and one support, so the order rests on the
  // antecedent and consequent tie-breaks.
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const TransactionDatabase distinct = testing::RandomDb(6, 9, 7, 50 + seed);
    TransactionDatabase db;
    for (int copy = 0; copy < 5; ++copy) {
      for (std::size_t t = 0; t < distinct.size(); ++t) {
        const ItemSpan tx = distinct.Transaction(t);
        db.Add(std::vector<Item>(tx.begin(), tx.end()));
      }
    }
    AprioriConfig cfg;
    cfg.minsup_count = 5;
    const FrequentItemsets frequent = MineSerial(db, cfg).frequent;
    for (double conf : {0.0, 0.5, 1.0}) {
      const std::vector<Rule> fast = GenerateRules(frequent, db.size(), conf);
      const std::vector<Rule> slow =
          testing::GenerateRulesBruteForce(frequent, db.size(), conf);
      ASSERT_GT(fast.size(), 10u) << "seed " << seed;
      std::size_t ties = 0;
      for (std::size_t i = 1; i < fast.size(); ++i) {
        ties += fast[i].confidence == fast[i - 1].confidence &&
                fast[i].support == fast[i - 1].support;
      }
      EXPECT_GT(ties, fast.size() / 2) << "seed " << seed;
      ExpectSameRules(fast, slow,
                      "ties seed " + std::to_string(seed) + " conf " +
                          std::to_string(conf));
    }
  }
}

TEST(RuleGenTest, RulesAreSortedByConfidence) {
  TransactionDatabase db = testing::RandomDb(80, 10, 7, 9);
  AprioriConfig cfg;
  cfg.minsup_count = 5;
  FrequentItemsets frequent = MineSerial(db, cfg).frequent;
  std::vector<Rule> rules = GenerateRules(frequent, db.size(), 0.2);
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_GE(rules[i - 1].confidence, rules[i].confidence);
  }
}

TEST(RuleGenTest, AntecedentAndConsequentDisjointNonEmpty) {
  TransactionDatabase db = testing::RandomDb(80, 10, 7, 10);
  AprioriConfig cfg;
  cfg.minsup_count = 5;
  FrequentItemsets frequent = MineSerial(db, cfg).frequent;
  std::vector<Rule> rules = GenerateRules(frequent, db.size(), 0.1);
  for (const Rule& r : rules) {
    EXPECT_FALSE(r.antecedent.empty());
    EXPECT_FALSE(r.consequent.empty());
    std::set<Item> inter;
    std::set<Item> ante(r.antecedent.begin(), r.antecedent.end());
    for (Item x : r.consequent) EXPECT_EQ(ante.count(x), 0u);
  }
}

TEST(RuleGenTest, NoFrequentPairsMeansNoRules) {
  FrequentItemsets frequent;
  frequent.levels.emplace_back(1);
  Item x = 3;
  frequent.levels[0].AddWithCount(ItemSpan(&x, 1), 5);
  EXPECT_TRUE(GenerateRules(frequent, 10, 0.1).empty());
}

TEST(RuleGenTest, RulesCarryNoGrowthSlack) {
  // A cached report keeps its rules for its whole life, so the returned
  // vector must not pin push_back's spare capacity.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    TransactionDatabase db = testing::RandomDb(80, 10, 7, seed);
    AprioriConfig cfg;
    cfg.minsup_count = 6;
    const std::vector<Rule> rules =
        GenerateRules(MineSerial(db, cfg).frequent, db.size(), 0.0);
    ASSERT_FALSE(rules.empty()) << "seed " << seed;
    EXPECT_EQ(rules.capacity(), rules.size()) << "seed " << seed;
  }
}

TEST(RuleGenTest, ToStringRendersRule) {
  Rule r;
  r.antecedent = {1, 2};
  r.consequent = {3};
  r.support = 0.5;
  r.confidence = 0.75;
  const std::string s = r.ToString();
  EXPECT_NE(s.find("{1 2}"), std::string::npos);
  EXPECT_NE(s.find("{3}"), std::string::npos);
  EXPECT_NE(s.find("0.75"), std::string::npos);
}

}  // namespace
}  // namespace pam
