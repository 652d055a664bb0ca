#include <tuple>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/parallel/driver.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using testing::Flatten;

TransactionDatabase TestDb() { return testing::SmallQuestDb(); }

// The central correctness property of the reproduction: every parallel
// formulation produces exactly the frequent itemsets (and counts) of the
// serial Apriori algorithm, for any processor count.
class ParallelEquivalence
    : public ::testing::TestWithParam<std::tuple<Algorithm, int>> {};

TEST_P(ParallelEquivalence, MatchesSerial) {
  const auto [algorithm, num_ranks] = GetParam();
  TransactionDatabase db = TestDb();

  AprioriConfig serial_cfg;
  serial_cfg.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, serial_cfg);
  ASSERT_GT(serial.frequent.TotalCount(), 0u);
  ASSERT_GE(serial.frequent.MaxK(), 3) << "test workload too shallow";

  ParallelConfig cfg;
  cfg.apriori = serial_cfg;
  cfg.page_bytes = 512;       // force multi-page movement
  cfg.hd_threshold_m = 100;   // force HD to form real grids
  MiningReport parallel = MineParallel(algorithm, db, num_ranks, cfg);

  EXPECT_EQ(Flatten(parallel.frequent), Flatten(serial.frequent))
      << AlgorithmName(algorithm) << " P=" << num_ranks;
  EXPECT_EQ(parallel.minsup_count, serial.minsup_count);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndRankCounts, ParallelEquivalence,
    ::testing::Combine(::testing::Values(Algorithm::kCD, Algorithm::kDD,
                                         Algorithm::kDDComm, Algorithm::kIDD,
                                         Algorithm::kHD, Algorithm::kHPA),
                       ::testing::Values(1, 2, 3, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, int>>& info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name + "_P" + std::to_string(std::get<1>(info.param));
    });

TEST(ParallelEquivalenceExtra, HdGridShapes) {
  // Exercise HD across thresholds that induce different G at fixed P.
  TransactionDatabase db = TestDb();
  AprioriConfig base;
  base.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, base);

  for (std::size_t m : {1u, 50u, 1000u, 1000000u}) {
    ParallelConfig cfg;
    cfg.apriori = base;
    cfg.hd_threshold_m = m;
    MiningReport hd = MineParallel(Algorithm::kHD, db, 6, cfg);
    EXPECT_EQ(Flatten(hd.frequent), Flatten(serial.frequent)) << "m=" << m;
  }
}

TEST(ParallelEquivalenceExtra, ContiguousPrefixStrategyStillCorrect) {
  TransactionDatabase db = TestDb();
  AprioriConfig base;
  base.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, base);

  ParallelConfig cfg;
  cfg.apriori = base;
  cfg.prefix_strategy = PrefixStrategy::kContiguous;
  cfg.split_heavy_prefixes = false;
  MiningReport idd = MineParallel(Algorithm::kIDD, db, 4, cfg);
  EXPECT_EQ(Flatten(idd.frequent), Flatten(serial.frequent));
}

TEST(ParallelEquivalenceExtra, IddWithoutBitmapStillCorrect) {
  TransactionDatabase db = TestDb();
  AprioriConfig base;
  base.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, base);

  ParallelConfig cfg;
  cfg.apriori = base;
  cfg.idd_use_bitmap = false;
  MiningReport idd = MineParallel(Algorithm::kIDD, db, 4, cfg);
  EXPECT_EQ(Flatten(idd.frequent), Flatten(serial.frequent));
}

TEST(ParallelEquivalenceExtra, MemoryCappedCdMatchesSerial) {
  TransactionDatabase db = TestDb();
  AprioriConfig base;
  base.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, base);

  ParallelConfig cfg;
  cfg.apriori = base;
  cfg.apriori.max_candidates_in_memory = 25;
  MiningReport cd = MineParallel(Algorithm::kCD, db, 4, cfg);
  EXPECT_EQ(Flatten(cd.frequent), Flatten(serial.frequent));

  bool multi_scan = false;
  for (const auto& pass : cd.metrics.per_pass) {
    if (pass[0].db_scans > 1) multi_scan = true;
  }
  EXPECT_TRUE(multi_scan);
}

TEST(ParallelEquivalenceExtra, SingleSourceIddMatchesSerial) {
  // Paper Section VI: IDD also works when the whole database lives on one
  // processor that feeds the ring pipeline.
  TransactionDatabase db = TestDb();
  AprioriConfig base;
  base.minsup_fraction = 0.02;
  MiningReport serial = MineSerial(db, base);

  ParallelConfig cfg;
  cfg.apriori = base;
  cfg.single_source = true;
  for (int p : {1, 2, 4, 8}) {
    MiningReport idd = MineParallel(Algorithm::kIDD, db, p, cfg);
    EXPECT_EQ(Flatten(idd.frequent), Flatten(serial.frequent)) << "P=" << p;
  }
}

TEST(ParallelEquivalenceExtra, SingleSourceOnlyRankZeroReadsLocally) {
  TransactionDatabase db = TestDb();
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  cfg.single_source = true;
  // A triangle pass counts where the data lives; ring-feed pass 2 too.
  cfg.apriori.use_pass2_triangle = false;
  MiningReport idd = MineParallel(Algorithm::kIDD, db, 4, cfg);
  // Every rank still processes the full database per pass (ring feed).
  for (std::size_t pass = 1; pass < idd.metrics.per_pass.size(); ++pass) {
    for (const PassMetrics& m : idd.metrics.per_pass[pass]) {
      EXPECT_EQ(m.transactions_processed, db.size());
    }
    // Only rank 0 has local wire bytes to feed into the ring.
    EXPECT_GT(idd.metrics.per_pass[pass][0].local_db_wire_bytes, 0u);
    for (int r = 1; r < 4; ++r) {
      EXPECT_EQ(idd.metrics.per_pass[pass][static_cast<std::size_t>(r)]
                    .local_db_wire_bytes,
                0u);
    }
  }
}

TEST(ParallelEquivalenceExtra, DeterministicAcrossRuns) {
  TransactionDatabase db = TestDb();
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  MiningReport a = MineParallel(Algorithm::kHD, db, 4, cfg);
  MiningReport b = MineParallel(Algorithm::kHD, db, 4, cfg);
  EXPECT_EQ(Flatten(a.frequent), Flatten(b.frequent));
  ASSERT_EQ(a.metrics.per_pass.size(), b.metrics.per_pass.size());
  for (std::size_t p = 0; p < a.metrics.per_pass.size(); ++p) {
    for (int r = 0; r < 4; ++r) {
      const PassMetrics& ma = a.metrics.per_pass[p][static_cast<std::size_t>(r)];
      const PassMetrics& mb = b.metrics.per_pass[p][static_cast<std::size_t>(r)];
      EXPECT_EQ(ma.subset.traversal_steps, mb.subset.traversal_steps);
      EXPECT_EQ(ma.subset.distinct_leaf_visits,
                mb.subset.distinct_leaf_visits);
      EXPECT_EQ(ma.data_bytes_sent, mb.data_bytes_sent);
    }
  }
}

}  // namespace
}  // namespace pam
