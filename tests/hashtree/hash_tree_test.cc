#include "pam/hashtree/hash_tree.h"

#include <cmath>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "pam/core/apriori_gen.h"
#include "pam/util/prng.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

using testing::CountBruteForce;
using testing::RandomCandidates;

TEST(HashTreeTest, CountsMatchBruteForceSmall) {
  TransactionDatabase db = testing::SupermarketDb();
  ItemsetCollection c2(2);
  for (Item a = 0; a < 5; ++a) {
    for (Item b = a + 1; b < 5; ++b) {
      std::vector<Item> s = {a, b};
      c2.Add(ItemSpan(s.data(), 2));
    }
  }
  HashTree tree(c2, HashTreeConfig{3, 2});
  std::vector<Count> counts(c2.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    tree.Subset(db.Transaction(t), std::span<Count>(counts), nullptr);
  }
  std::vector<Count> expected = CountBruteForce(db, {0, db.size()}, c2);
  EXPECT_EQ(counts, expected);
}

// Parameterized sweep: (k, fanout, leaf_capacity).
class HashTreeSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(HashTreeSweep, MatchesBruteForceOnRandomData) {
  const auto [k, fanout, leaf_capacity] = GetParam();
  TransactionDatabase db = testing::RandomDb(300, 25, 12, 1000 + k);
  ItemsetCollection candidates =
      RandomCandidates(k, 150, 25, 2000 + fanout);
  HashTree tree(candidates, HashTreeConfig{fanout, leaf_capacity});
  std::vector<Count> counts(candidates.size(), 0);
  SubsetStats stats;
  for (std::size_t t = 0; t < db.size(); ++t) {
    tree.Subset(db.Transaction(t), std::span<Count>(counts), &stats);
  }
  EXPECT_EQ(counts, CountBruteForce(db, {0, db.size()}, candidates));
  EXPECT_EQ(stats.transactions, db.size());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HashTreeSweep,
    ::testing::Combine(::testing::Values(2, 3, 4, 5),
                       ::testing::Values(2, 3, 8),
                       ::testing::Values(1, 4, 64)),
    [](const ::testing::TestParamInfo<std::tuple<int, int, int>>& info) {
      std::string name = "k";
      name += std::to_string(std::get<0>(info.param));
      name += "_fan";
      name += std::to_string(std::get<1>(info.param));
      name += "_leaf";
      name += std::to_string(std::get<2>(info.param));
      return name;
    });

TEST(HashTreeTest, PartitionedTreesSumToFullCounts) {
  // Counting a partition of the candidates on separate trees must add up
  // to counting all candidates on one tree (DD/IDD rely on this).
  TransactionDatabase db = testing::RandomDb(200, 20, 10, 11);
  ItemsetCollection candidates = RandomCandidates(3, 120, 20, 12);

  HashTree full(candidates, HashTreeConfig{4, 4});
  std::vector<Count> full_counts(candidates.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    full.Subset(db.Transaction(t), std::span<Count>(full_counts), nullptr);
  }

  std::vector<Count> split_counts(candidates.size(), 0);
  const int parts = 4;
  for (int part = 0; part < parts; ++part) {
    std::vector<std::uint32_t> ids;
    for (std::size_t i = static_cast<std::size_t>(part); i < candidates.size();
         i += parts) {
      ids.push_back(static_cast<std::uint32_t>(i));
    }
    HashTree tree(candidates, ids, HashTreeConfig{4, 4});
    for (std::size_t t = 0; t < db.size(); ++t) {
      tree.Subset(db.Transaction(t), std::span<Count>(split_counts), nullptr);
    }
  }
  EXPECT_EQ(split_counts, full_counts);
}

TEST(HashTreeTest, BitmapFilterSkipsForeignStartItems) {
  // IDD usage: the tree holds only the candidates whose first item the
  // rank owns, and the bitmap skips all other start items at the root.
  // Counts of owned candidates must still be exact, and the filter must
  // measurably cut traversal work.
  TransactionDatabase db = testing::RandomDb(150, 20, 10, 21);
  ItemsetCollection candidates = RandomCandidates(2, 60, 20, 22);

  Bitmap filter(20);
  for (Item i = 0; i < 10; ++i) filter.Set(i);
  std::vector<std::uint32_t> owned_ids;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates.Get(i)[0] < 10) {
      owned_ids.push_back(static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_FALSE(owned_ids.empty());

  HashTree tree(candidates, owned_ids, HashTreeConfig{4, 4});
  std::vector<Count> counts(candidates.size(), 0);
  SubsetStats with_filter;
  for (std::size_t t = 0; t < db.size(); ++t) {
    tree.Subset(db.Transaction(t), std::span<Count>(counts), &with_filter,
                &filter);
  }
  std::vector<Count> expected = CountBruteForce(db, {0, db.size()}, candidates);
  for (std::uint32_t id : owned_ids) {
    EXPECT_EQ(counts[id], expected[id]) << "owned candidate " << id;
  }
  EXPECT_GT(with_filter.root_items_skipped, 0u);

  // Without the filter the same tree does strictly more root work.
  HashTree unfiltered(candidates, owned_ids, HashTreeConfig{4, 4});
  std::vector<Count> counts2(candidates.size(), 0);
  SubsetStats no_filter;
  for (std::size_t t = 0; t < db.size(); ++t) {
    unfiltered.Subset(db.Transaction(t), std::span<Count>(counts2),
                      &no_filter);
  }
  EXPECT_EQ(no_filter.root_items_skipped, 0u);
  EXPECT_GT(no_filter.root_items_considered,
            with_filter.root_items_considered);
  for (std::uint32_t id : owned_ids) EXPECT_EQ(counts2[id], counts[id]);
}

TEST(HashTreeTest, LeafVisitsBoundedByPotentialCandidates) {
  // Distinct leaf visits per transaction can never exceed the number of
  // leaves nor the number of size-k sub-patterns the traversal can open.
  TransactionDatabase db = testing::RandomDb(100, 15, 10, 31);
  ItemsetCollection candidates = RandomCandidates(3, 100, 15, 32);
  HashTree tree(candidates, HashTreeConfig{3, 2});
  std::vector<Count> counts(candidates.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    SubsetStats stats;
    tree.Subset(db.Transaction(t), std::span<Count>(counts), &stats);
    EXPECT_LE(stats.distinct_leaf_visits, tree.num_leaves());
  }
}

TEST(HashTreeTest, ShortTransactionsAreCheap) {
  ItemsetCollection candidates = RandomCandidates(3, 50, 15, 41);
  HashTree tree(candidates, HashTreeConfig{4, 4});
  std::vector<Count> counts(candidates.size(), 0);
  SubsetStats stats;
  std::vector<Item> tiny = {3, 7};  // shorter than k=3
  tree.Subset(ItemSpan(tiny.data(), tiny.size()), std::span<Count>(counts),
              &stats);
  EXPECT_EQ(stats.traversal_steps, 0u);
  EXPECT_EQ(stats.distinct_leaf_visits, 0u);
  EXPECT_EQ(stats.transactions, 1u);
}

TEST(HashTreeTest, SmallLeafCapacityForcesSplits) {
  ItemsetCollection candidates = RandomCandidates(3, 200, 30, 51);
  // A tree that never splits is one root leaf.
  HashTree split_tree(candidates, HashTreeConfig{4, 1});
  HashTree flat_tree(candidates, HashTreeConfig{4, 1000});
  EXPECT_GT(split_tree.num_leaves(), flat_tree.num_leaves());
  EXPECT_EQ(flat_tree.num_leaves(), 1u);
  EXPECT_EQ(split_tree.num_candidates(), 200u);
  EXPECT_EQ(split_tree.build_inserts(), 200u);
}

TEST(HashTreeTest, DuplicateItemsBeyondDepthChainInLeaf) {
  // Candidates identical under the hash path (same items mod fanout at
  // every level) must still count correctly by chaining in one leaf.
  ItemsetCollection candidates(2);
  std::vector<std::vector<Item>> sets = {{0, 4}, {0, 8}, {4, 8}, {0, 12}};
  for (auto& s : sets) candidates.Add(ItemSpan(s.data(), 2));
  // fanout 4: 0,4,8,12 all hash to bucket 0.
  HashTree tree(candidates, HashTreeConfig{4, 1});
  TransactionDatabase db;
  db.Add({0, 4, 8, 12});
  db.Add({0, 8});
  std::vector<Count> counts(candidates.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    tree.Subset(db.Transaction(t), std::span<Count>(counts), nullptr);
  }
  EXPECT_EQ(counts, CountBruteForce(db, {0, db.size()}, candidates));
}

TEST(HashTreeConfigTest, TunedForProducesTargetOccupancy) {
  // The paper's S-tuning rule: fanout^k should cover M / S leaves.
  for (std::size_t m : {100u, 5000u, 200000u}) {
    for (int k : {2, 3, 5}) {
      for (int s : {4, 16}) {
        HashTreeConfig cfg = HashTreeConfig::TunedFor(m, k, s);
        EXPECT_GE(cfg.fanout, 4);
        EXPECT_LE(cfg.fanout, 1024);
        EXPECT_EQ(cfg.leaf_capacity, s);
        const double paths = std::pow(cfg.fanout, k);
        EXPECT_GE(paths + 1e-6, static_cast<double>(m) / s)
            << "m=" << m << " k=" << k << " s=" << s;
      }
    }
  }
}

TEST(HashTreeConfigTest, TunedTreeAvoidsLeafChaining) {
  // With the tuned fanout, the average leaf occupancy stays near S even
  // for candidate sets that would saturate a narrow tree.
  TransactionDatabase db = testing::RandomDb(50, 40, 10, 71);
  ItemsetCollection candidates = RandomCandidates(3, 600, 40, 72);
  const int s = 8;
  HashTreeConfig tuned =
      HashTreeConfig::TunedFor(candidates.size(), 3, s);
  HashTreeConfig narrow{4, s};
  HashTree tuned_tree(candidates, tuned);
  HashTree narrow_tree(candidates, narrow);
  const double tuned_occupancy =
      static_cast<double>(candidates.size()) /
      static_cast<double>(tuned_tree.num_leaves());
  const double narrow_occupancy =
      static_cast<double>(candidates.size()) /
      static_cast<double>(narrow_tree.num_leaves());
  EXPECT_LT(tuned_occupancy, narrow_occupancy);
  EXPECT_LE(tuned_occupancy, 2.0 * s);
  // And counting stays correct.
  std::vector<Count> counts(candidates.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    tuned_tree.Subset(db.Transaction(t), std::span<Count>(counts), nullptr);
  }
  EXPECT_EQ(counts, CountBruteForce(db, {0, db.size()}, candidates));
}

TEST(HashTreeConfigTest, TunedForClampedFanoutRaisesLeafCapacity) {
  // When even fanout 1024 cannot reach M / S depth-k paths, the capacity
  // must be raised to the achievable occupancy ceil(M / fanout^k) instead
  // of silently keeping the unreachable target S.
  const std::size_t m = std::size_t{1} << 30;
  HashTreeConfig big = HashTreeConfig::TunedFor(m, 2, 8);
  EXPECT_EQ(big.fanout, 1024);
  // 1024^2 = 2^20 paths for 2^30 candidates: 1024 candidates per leaf.
  EXPECT_EQ(big.leaf_capacity, 1024);

  HashTreeConfig mid = HashTreeConfig::TunedFor(5'000'000, 2, 2);
  EXPECT_EQ(mid.fanout, 1024);
  EXPECT_EQ(mid.leaf_capacity, 5);  // ceil(5e6 / 2^20)

  // The invariant behind both cases: paths * capacity covers M.
  const double paths = std::pow(1024.0, 2);
  EXPECT_GE(paths * big.leaf_capacity + 1e-6, static_cast<double>(m));
  EXPECT_GE(paths * mid.leaf_capacity + 1e-6, 5'000'000.0);

  // Reachable configurations keep the exact target S.
  HashTreeConfig small = HashTreeConfig::TunedFor(100'000, 3, 8);
  EXPECT_EQ(small.leaf_capacity, 8);
}

TEST(HashTreeConfigTest, TunedForDegenerateInputs) {
  HashTreeConfig tiny = HashTreeConfig::TunedFor(0, 2, 16);
  EXPECT_GE(tiny.fanout, 4);
  HashTreeConfig zero_s = HashTreeConfig::TunedFor(100, 2, 0);
  EXPECT_EQ(zero_s.leaf_capacity, 1);
}

TEST(HashTreeTest, EmptyCandidateSet) {
  ItemsetCollection candidates(2);
  HashTree tree(candidates, HashTreeConfig{4, 4});
  TransactionDatabase db;
  db.Add({1, 2, 3});
  std::vector<Count> counts;
  SubsetStats stats;
  tree.Subset(db.Transaction(0), std::span<Count>(counts), &stats);
  EXPECT_EQ(stats.leaf_candidates_checked, 0u);
}

TEST(HashTreeTest, RealAprioriC3CountsMatch) {
  // End-to-end shape: candidates produced by apriori_gen from actual F2.
  TransactionDatabase db = testing::RandomDb(400, 30, 10, 61);
  std::vector<Count> item_counts = CountItems(db, {0, db.size()});
  ItemsetCollection f1 = MakeF1(item_counts, 40);
  ItemsetCollection c2 = AprioriGen(f1);
  ASSERT_GT(c2.size(), 0u);
  HashTree t2(c2, HashTreeConfig{8, 8});
  std::vector<Count> counts2(c2.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    t2.Subset(db.Transaction(t), std::span<Count>(counts2), nullptr);
  }
  EXPECT_EQ(counts2, CountBruteForce(db, {0, db.size()}, c2));

  c2.counts() = counts2;
  c2.PruneBelow(20);
  if (c2.size() >= 2) {
    ItemsetCollection c3 = AprioriGen(c2);
    if (!c3.empty()) {
      HashTree t3(c3, HashTreeConfig{8, 8});
      std::vector<Count> counts3(c3.size(), 0);
      for (std::size_t t = 0; t < db.size(); ++t) {
        t3.Subset(db.Transaction(t), std::span<Count>(counts3), nullptr);
      }
      EXPECT_EQ(counts3, CountBruteForce(db, {0, db.size()}, c3));
    }
  }
}

}  // namespace
}  // namespace pam
