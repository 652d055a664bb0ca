#include <map>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/model/vij.h"
#include "pam/parallel/driver.h"
#include "testing/random_db.h"

namespace pam {
namespace {

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

TEST(HpaTest, SubsetGenerationCountIdentity) {
  // HPA generates exactly sum over transactions of C(|t|, k) potential
  // candidates in pass k; traversal_steps counts them and
  // leaf_candidates_checked counts the probes, which must match (every
  // subset is probed somewhere exactly once).
  TransactionDatabase db = testing::RandomDb(150, 15, 9, 41);
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 2;
  cfg.apriori.max_k = 3;
  // The pass-2 triangle path counts pairs without routing subsets; pin it
  // off so the identity holds for every pass.
  cfg.apriori.use_pass2_triangle = false;
  const int p = 3;
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, p, cfg);

  for (int pass = 1; pass < hpa.metrics.num_passes(); ++pass) {
    const int k = hpa.metrics.per_pass[static_cast<std::size_t>(pass)][0].k;
    double expected = 0.0;
    for (std::size_t t = 0; t < db.size(); ++t) {
      expected += BinomialCoefficient(db.Transaction(t).size(),
                                      static_cast<std::uint64_t>(k));
    }
    const SubsetStats stats = hpa.metrics.PassSubsetStats(pass);
    EXPECT_DOUBLE_EQ(static_cast<double>(stats.traversal_steps), expected)
        << "pass " << pass;
    EXPECT_EQ(stats.leaf_candidates_checked, stats.traversal_steps)
        << "every generated subset must be probed exactly once";
  }
}

TEST(HpaTest, CandidateOwnershipPartitionsCandidates) {
  TransactionDatabase db = testing::RandomDb(200, 20, 8, 43);
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 4;
  // A triangle pass owns all of C_2 on every rank; hash pass 2 too.
  cfg.apriori.use_pass2_triangle = false;
  const int p = 5;
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, p, cfg);
  for (std::size_t pass = 1; pass < hpa.metrics.per_pass.size(); ++pass) {
    const auto& row = hpa.metrics.per_pass[pass];
    std::size_t local_sum = 0;
    for (const PassMetrics& m : row) local_sum += m.num_candidates_local;
    EXPECT_EQ(local_sum, row[0].num_candidates_global) << "pass " << pass;
  }
}

TEST(HpaTest, NoWireTrafficOnSingleRank) {
  TransactionDatabase db = testing::RandomDb(100, 15, 7, 47);
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 3;
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, 1, cfg);
  for (int pass = 0; pass < hpa.metrics.num_passes(); ++pass) {
    EXPECT_EQ(hpa.metrics.TotalDataBytes(pass), 0u);
  }
}

TEST(HpaTest, SmallPageSizeStillCorrect) {
  // Tiny flush buffers force many batches and exercise the end-of-stream
  // protocol under fragmentation.
  TransactionDatabase db = testing::RandomDb(120, 14, 8, 53);
  AprioriConfig serial_cfg;
  serial_cfg.minsup_count = 3;
  MiningReport serial = MineSerial(db, serial_cfg);

  ParallelConfig cfg;
  cfg.apriori = serial_cfg;
  cfg.page_bytes = 8;  // pathologically small
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, 4, cfg);
  EXPECT_EQ(Flatten(hpa.frequent), Flatten(serial.frequent));
}

TEST(HpaTest, ShortTransactionsGenerateNoSubsets) {
  TransactionDatabase db;
  db.Add({1});
  db.Add({2});
  db.Add({1, 2});
  db.Add({1, 2});
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 2;
  // Count subsets through the router, not the pass-2 triangle kernel.
  cfg.apriori.use_pass2_triangle = false;
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, 2, cfg);
  ASSERT_GE(hpa.metrics.num_passes(), 2);
  // Pass 2: only the two {1,2} transactions yield subsets.
  EXPECT_EQ(hpa.metrics.PassSubsetStats(1).traversal_steps, 2u);
  std::vector<Item> pair = {1, 2};
  Count c = 0;
  ASSERT_TRUE(hpa.frequent.Lookup(ItemSpan(pair.data(), 2), &c));
  EXPECT_EQ(c, 2u);
}

}  // namespace
}  // namespace pam
