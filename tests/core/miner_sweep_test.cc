// Miner-level parameter sweeps: the serial Apriori result must be
// invariant to every performance knob (hash tree shape, memory cap, DHP
// buckets), and the itemset collection must behave like a reference map
// under randomized operations.

#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/model/cost_model.h"
#include "pam/parallel/driver.h"
#include "pam/util/prng.h"
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

class MinerKnobSweep
    : public ::testing::TestWithParam<
          std::tuple<int, int, std::size_t, std::size_t>> {};

TEST_P(MinerKnobSweep, ResultInvariantToPerformanceKnobs) {
  const auto [fanout, leaf_capacity, memory_cap, dhp] = GetParam();
  static const TransactionDatabase db = testing::RandomDb(220, 18, 9, 555);

  AprioriConfig reference;
  reference.minsup_count = 7;
  static const auto expected = Flatten(MineSerial(db, reference).frequent);
  ASSERT_FALSE(expected.empty());

  AprioriConfig cfg = reference;
  cfg.tree.fanout = fanout;
  cfg.tree.leaf_capacity = leaf_capacity;
  cfg.max_candidates_in_memory = memory_cap;
  cfg.dhp_buckets = dhp;
  EXPECT_EQ(Flatten(MineSerial(db, cfg).frequent), expected);
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, MinerKnobSweep,
    ::testing::Combine(::testing::Values(2, 7, 64),
                       ::testing::Values(1, 16),
                       ::testing::Values(std::size_t{0}, std::size_t{13}),
                       ::testing::Values(std::size_t{0}, std::size_t{32},
                                         std::size_t{8192})),
    [](const ::testing::TestParamInfo<
        std::tuple<int, int, std::size_t, std::size_t>>& info) {
      return "fan" + std::to_string(std::get<0>(info.param)) + "_leaf" +
             std::to_string(std::get<1>(info.param)) + "_cap" +
             std::to_string(std::get<2>(info.param)) + "_dhp" +
             std::to_string(std::get<3>(info.param));
    });

TEST(ItemsetCollectionPropertyTest, BehavesLikeReferenceMap) {
  Prng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const int k = 1 + static_cast<int>(rng.NextBounded(4));
    std::map<std::vector<Item>, Count> reference;
    ItemsetCollection col(k);
    // Random unique sorted itemsets with random counts.
    for (int i = 0; i < 60; ++i) {
      std::vector<Item> set;
      while (set.size() < static_cast<std::size_t>(k)) {
        const Item x = static_cast<Item>(rng.NextBounded(30));
        if (std::find(set.begin(), set.end(), x) == set.end()) {
          set.push_back(x);
        }
      }
      std::sort(set.begin(), set.end());
      if (reference.count(set)) continue;
      const Count c = rng.NextBounded(100);
      reference[set] = c;
      col.AddWithCount(ItemSpan(set.data(), set.size()), c);
    }
    col.SortLexicographic();
    ASSERT_TRUE(col.IsSortedUnique());
    ASSERT_EQ(col.size(), reference.size());

    // Lookup every stored set and some absent probes.
    for (const auto& [set, count] : reference) {
      const std::size_t idx = col.Find(ItemSpan(set.data(), set.size()));
      ASSERT_NE(idx, ItemsetCollection::npos);
      EXPECT_EQ(col.count(idx), count);
    }
    // Prune and compare against the reference filtered the same way.
    const Count threshold = 50;
    col.PruneBelow(threshold);
    std::size_t expected_size = 0;
    for (const auto& [set, count] : reference) {
      if (count >= threshold) ++expected_size;
    }
    EXPECT_EQ(col.size(), expected_size);
    for (std::size_t i = 0; i < col.size(); ++i) {
      EXPECT_GE(col.count(i), threshold);
    }
  }
}

TEST(MinerSweepExtra, Sp2ModelAlsoRanksPaperStyle) {
  // The SP2 machine model must produce the same qualitative ordering as
  // the T3E one on an M-heavy workload (Figure 12's machine).
  TransactionDatabase db = testing::RandomDb(600, 40, 10, 557);
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 10;
  const CostModel sp2(MachineModel::IbmSp2());
  MiningReport dd = MineParallel(Algorithm::kDD, db, 4, cfg);
  MiningReport idd = MineParallel(Algorithm::kIDD, db, 4, cfg);
  EXPECT_GT(sp2.RunTime(Algorithm::kDD, dd.metrics),
            sp2.RunTime(Algorithm::kIDD, idd.metrics));
}

}  // namespace
}  // namespace pam
