#include <map>

#include <gtest/gtest.h>

#include "pam/core/apriori_gen.h"
#include "pam/core/serial_apriori.h"
#include "pam/datagen/quest_gen.h"
#include "pam/parallel/driver.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

using testing::CountBruteForce;

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

TEST(DhpFilterTest, BucketCountUpperBoundsPairSupport) {
  // The safety property DHP rests on: a pair's bucket count can never be
  // below its true support (other pairs may inflate it, never deflate).
  TransactionDatabase db = testing::RandomDb(200, 25, 9, 131);
  for (std::size_t buckets : {16u, 256u, 65536u}) {
    std::vector<Count> bucket_counts =
        CountPairBuckets(db, {0, db.size()}, buckets);
    for (Item a = 0; a < 25; ++a) {
      for (Item b = a + 1; b < 25; ++b) {
        Item pair[2] = {a, b};
        Count support = 0;
        for (std::size_t t = 0; t < db.size(); ++t) {
          if (IsSortedSubset(ItemSpan(pair, 2), db.Transaction(t))) {
            ++support;
          }
        }
        EXPECT_GE(bucket_counts[HashItemset(ItemSpan(pair, 2)) % buckets],
                  support)
            << "pair {" << a << "," << b << "} buckets=" << buckets;
      }
    }
  }
}

TEST(DhpFilterTest, FilterPreservesAllTrueFrequentPairs) {
  TransactionDatabase db = testing::RandomDb(200, 20, 8, 137);
  const Count minsup = 8;
  std::vector<Count> item_counts = CountItems(db, {0, db.size()});
  ItemsetCollection c2 = AprioriGen(MakeF1(item_counts, minsup));
  std::vector<Count> buckets = CountPairBuckets(db, {0, db.size()}, 64);
  ItemsetCollection filtered = FilterByBuckets(c2, buckets, minsup);
  EXPECT_LE(filtered.size(), c2.size());
  // No frequent pair may be filtered out.
  std::vector<Count> true_counts =
      CountBruteForce(db, {0, db.size()}, c2);
  for (std::size_t i = 0; i < c2.size(); ++i) {
    if (true_counts[i] >= minsup) {
      EXPECT_NE(filtered.Find(c2.Get(i)), ItemsetCollection::npos);
    }
  }
}

TEST(DhpFilterTest, SerialResultsIdenticalWithFilter) {
  TransactionDatabase db = GenerateQuest([] {
    QuestConfig q;
    q.num_transactions = 800;
    q.num_items = 120;
    q.avg_transaction_len = 8;
    q.avg_pattern_len = 3;
    q.seed = 19;
    return q;
  }());
  AprioriConfig plain;
  plain.minsup_fraction = 0.015;
  MiningReport without = MineSerial(db, plain);

  AprioriConfig with = plain;
  with.dhp_buckets = 4096;
  MiningReport with_filter = MineSerial(db, with);

  EXPECT_EQ(Flatten(with_filter.frequent), Flatten(without.frequent));
  // The filter must actually prune C_2 on this workload.
  ASSERT_GE(with_filter.metrics.per_pass.size(), 2u);
  EXPECT_LT(with_filter.metrics.per_pass[1][0].num_candidates_global,
            without.metrics.per_pass[1][0].num_candidates_global);
}

TEST(DhpFilterTest, MoreBucketsPruneMore) {
  TransactionDatabase db = testing::RandomDb(400, 60, 8, 139);
  AprioriConfig base;
  base.minsup_count = 10;
  std::size_t prev_candidates = static_cast<std::size_t>(-1);
  for (std::size_t buckets : {0u, 64u, 4096u, 262144u}) {
    AprioriConfig cfg = base;
    cfg.dhp_buckets = buckets;
    MiningReport result = MineSerial(db, cfg);
    if (result.metrics.per_pass.size() < 2) break;
    const std::size_t c2 = result.metrics.per_pass[1][0].num_candidates_global;
    EXPECT_LE(c2, prev_candidates) << "buckets=" << buckets;
    prev_candidates = c2;
  }
}

class DhpParallelSweep : public ::testing::TestWithParam<Algorithm> {};

TEST_P(DhpParallelSweep, ParallelResultsIdenticalWithFilter) {
  TransactionDatabase db = GenerateQuest([] {
    QuestConfig q;
    q.num_transactions = 500;
    q.num_items = 80;
    q.avg_transaction_len = 7;
    q.avg_pattern_len = 3;
    q.seed = 29;
    return q;
  }());
  AprioriConfig serial_cfg;
  serial_cfg.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, serial_cfg);

  ParallelConfig cfg;
  cfg.apriori = serial_cfg;
  cfg.apriori.dhp_buckets = 2048;
  MiningReport result = MineParallel(GetParam(), db, 4, cfg);
  EXPECT_EQ(Flatten(result.frequent), Flatten(serial.frequent));
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, DhpParallelSweep,
    ::testing::Values(Algorithm::kCD, Algorithm::kDD, Algorithm::kDDComm,
                      Algorithm::kIDD, Algorithm::kHD, Algorithm::kHPA),
    [](const ::testing::TestParamInfo<Algorithm>& info) {
      std::string name = AlgorithmName(info.param);
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pam
