// Differential tests for the flat subset-counting kernel and the
// triangular pass-2 counter: both must be indistinguishable from the
// classic recursive traversal of testing/reference.h (counts AND
// SubsetStats, bit for bit) and from brute-force counting, across random
// databases, tree shapes, root filters, and the chunked memory-cap
// configurations of the miners.

#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "pam/core/apriori_gen.h"
#include "pam/core/serial_apriori.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/parallel/driver.h"
#include "pam/util/prng.h"
#include "testing/random_db.h"
#include "testing/reference.h"

namespace pam {
namespace {

using testing::CountBruteForce;
using testing::RandomCandidates;
using Flat = HashTree;
using Classic = testing::ReferenceHashTree;

struct KernelOutput {
  std::vector<Count> counts;
  SubsetStats stats;
};

// Counts every transaction of `db` through a `Tree` (the production
// HashTree or the reference traversal) built over `ids`.
template <typename Tree>
KernelOutput RunKernel(const TransactionDatabase& db,
                       const ItemsetCollection& candidates,
                       const std::vector<std::uint32_t>& ids,
                       const HashTreeConfig& config,
                       const Bitmap* filter = nullptr) {
  Tree tree(candidates, ids, config);
  KernelOutput out;
  out.counts.assign(candidates.size(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    tree.Subset(db.Transaction(t), std::span<Count>(out.counts), &out.stats,
                filter);
  }
  return out;
}

void ExpectSameStats(const SubsetStats& a, const SubsetStats& b) {
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.root_items_considered, b.root_items_considered);
  EXPECT_EQ(a.root_items_skipped, b.root_items_skipped);
  EXPECT_EQ(a.traversal_steps, b.traversal_steps);
  EXPECT_EQ(a.distinct_leaf_visits, b.distinct_leaf_visits);
  EXPECT_EQ(a.leaf_candidates_checked, b.leaf_candidates_checked);
}

std::vector<std::uint32_t> AllIds(std::size_t n) {
  std::vector<std::uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0);
  return ids;
}

TEST(FlatKernelTest, MatchesClassicAndBruteForceAcrossRandomShapes) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    TransactionDatabase db =
        testing::RandomDb(250, 30, 14, 900 + seed);
    for (int k : {2, 3, 4}) {
      ItemsetCollection candidates =
          RandomCandidates(k, 180, 30, 7000 + seed * 10 + k);
      // Non-power-of-two fanouts exercise the construction-time rounding;
      // both kernels must round identically.
      for (int fanout : {3, 8, 17}) {
        const HashTreeConfig config{fanout, 4};
        const std::vector<std::uint32_t> ids = AllIds(candidates.size());
        KernelOutput flat = RunKernel<Flat>(db, candidates, ids, config);
        KernelOutput classic = RunKernel<Classic>(db, candidates, ids, config);
        EXPECT_EQ(flat.counts, classic.counts)
            << "seed=" << seed << " k=" << k << " fanout=" << fanout;
        ExpectSameStats(flat.stats, classic.stats);
        EXPECT_EQ(flat.counts,
                  CountBruteForce(db, {0, db.size()}, candidates));
      }
    }
  }
}

TEST(FlatKernelTest, MatchesClassicWithRootFilter) {
  TransactionDatabase db = testing::RandomDb(200, 24, 12, 77);
  ItemsetCollection candidates = RandomCandidates(3, 150, 24, 78);
  // IDD-style ownership: the tree holds only candidates starting below 12
  // and the bitmap prunes all other start items at the root.
  Bitmap filter(24);
  for (Item i = 0; i < 12; ++i) filter.Set(i);
  std::vector<std::uint32_t> owned;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    if (candidates.Get(i)[0] < 12) {
      owned.push_back(static_cast<std::uint32_t>(i));
    }
  }
  ASSERT_FALSE(owned.empty());
  const HashTreeConfig config{4, 2};
  KernelOutput flat = RunKernel<Flat>(db, candidates, owned, config, &filter);
  KernelOutput classic =
      RunKernel<Classic>(db, candidates, owned, config, &filter);
  EXPECT_EQ(flat.counts, classic.counts);
  ExpectSameStats(flat.stats, classic.stats);
  EXPECT_GT(flat.stats.root_items_skipped, 0u);
}

TEST(FlatKernelTest, MatchesClassicOnPartitionedChunks) {
  // The memory-capped miners build trees over candidate id ranges; both
  // kernels must agree chunk by chunk.
  TransactionDatabase db = testing::RandomDb(150, 20, 10, 91);
  ItemsetCollection candidates = RandomCandidates(2, 120, 20, 92);
  const HashTreeConfig config{8, 4};
  const std::size_t chunk_size = 37;
  for (std::size_t lo = 0; lo < candidates.size(); lo += chunk_size) {
    const std::size_t hi = std::min(candidates.size(), lo + chunk_size);
    std::vector<std::uint32_t> ids(hi - lo);
    std::iota(ids.begin(), ids.end(), static_cast<std::uint32_t>(lo));
    KernelOutput flat = RunKernel<Flat>(db, candidates, ids, config);
    KernelOutput classic = RunKernel<Classic>(db, candidates, ids, config);
    EXPECT_EQ(flat.counts, classic.counts) << "chunk at " << lo;
    ExpectSameStats(flat.stats, classic.stats);
  }
}

TEST(FlatKernelTest, DegenerateSingleLeafTree) {
  // Capacity large enough that the root never splits: the degenerate
  // root-leaf path must agree between kernels (one check per transaction).
  TransactionDatabase db = testing::RandomDb(120, 15, 8, 101);
  ItemsetCollection candidates = RandomCandidates(2, 40, 15, 102);
  const HashTreeConfig config{4, 1000};
  const std::vector<std::uint32_t> ids = AllIds(candidates.size());
  KernelOutput flat = RunKernel<Flat>(db, candidates, ids, config);
  KernelOutput classic = RunKernel<Classic>(db, candidates, ids, config);
  EXPECT_EQ(flat.counts, classic.counts);
  ExpectSameStats(flat.stats, classic.stats);
  EXPECT_EQ(flat.counts, CountBruteForce(db, {0, db.size()}, candidates));
}

// A draw the uniform ones miss: at minsup 30, 16 frequent items (ids up
// to 195) spread among 2,000 rare ones, so every transaction holds more
// than 16 items, most of them infrequent, and many above F_1's largest
// item. The triangle's rank loop then skips most items of every
// transaction.
TransactionDatabase SparseLongDb() {
  Prng rng(4242);
  TransactionDatabase db;
  std::vector<Item> tx;
  for (int t = 0; t < 300; ++t) {
    tx.clear();
    for (Item hot = 0; hot < 16; ++hot) {
      if (rng.NextBounded(2) == 1) tx.push_back(hot * 13);
    }
    for (int i = 0; i < 20; ++i) {
      tx.push_back(static_cast<Item>(rng.NextBounded(2000)));
    }
    db.Add(tx);
  }
  return db;
}

TEST(TrianglePairCounterTest, MatchesTreeCountsOnC2) {
  std::vector<TransactionDatabase> draws;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    draws.push_back(testing::RandomDb(300, 40, 15, 500 + seed));
  }
  draws.push_back(SparseLongDb());
  for (const TransactionDatabase& db : draws) {
    std::vector<Count> item_counts = CountItems(db, {0, db.size()});
    ItemsetCollection f1 = MakeF1(item_counts, 30);
    if (f1.size() < 2) continue;
    ItemsetCollection c2 = AprioriGen(f1);
    ASSERT_GT(c2.size(), 0u);

    TrianglePairCounter tri(f1);
    SubsetStats stats;
    for (std::size_t t = 0; t < db.size(); ++t) {
      tri.AddTransaction(db.Transaction(t), &stats);
    }
    std::vector<Count> tri_counts(c2.size(), 0);
    tri.Extract(c2, std::span<Count>(tri_counts));
    EXPECT_EQ(stats.transactions, db.size());

    EXPECT_EQ(tri_counts, CountBruteForce(db, {0, db.size()}, c2));
  }
}

TEST(TrianglePairCounterTest, MatchesTreeCountsOnDhpFilteredC2) {
  // DHP drops some C2 candidates; the triangle must extract exactly the
  // surviving subset's counts.
  TransactionDatabase db = testing::RandomDb(250, 30, 12, 611);
  std::vector<Count> item_counts = CountItems(db, {0, db.size()});
  ItemsetCollection f1 = MakeF1(item_counts, 25);
  ASSERT_GE(f1.size(), 2u);
  std::vector<Count> buckets = CountPairBuckets(db, {0, db.size()}, 64);
  ItemsetCollection c2 = FilterByBuckets(AprioriGen(f1), buckets, 25);
  ASSERT_GT(c2.size(), 0u);

  TrianglePairCounter tri(f1);
  for (std::size_t t = 0; t < db.size(); ++t) {
    tri.AddTransaction(db.Transaction(t), nullptr);
  }
  std::vector<Count> tri_counts(c2.size(), 0);
  tri.Extract(c2, std::span<Count>(tri_counts));
  EXPECT_EQ(tri_counts, CountBruteForce(db, {0, db.size()}, c2));
}

TEST(TrianglePairCounterTest, FitsHonorsMemoryCap) {
  EXPECT_TRUE(TrianglePairCounter::Fits(100, 0));       // no cap
  EXPECT_TRUE(TrianglePairCounter::Fits(100, 4950));    // exactly R(R-1)/2
  EXPECT_FALSE(TrianglePairCounter::Fits(100, 4949));
  EXPECT_FALSE(TrianglePairCounter::Fits(1, 1000));     // no pairs to count
}

void ExpectSameFrequent(const FrequentItemsets& a, const FrequentItemsets& b) {
  ASSERT_EQ(a.levels.size(), b.levels.size());
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    EXPECT_EQ(a.levels[i].Serialize(), b.levels[i].Serialize())
        << "level " << i + 1;
  }
}

TEST(TrianglePathTest, SerialMinerOutputUnchangedByToggle) {
  TransactionDatabase db = testing::RandomDb(400, 35, 12, 712);
  for (std::size_t cap : {std::size_t{0}, std::size_t{40}}) {
    AprioriConfig with;
    with.minsup_count = 20;
    with.max_candidates_in_memory = cap;
    AprioriConfig without = with;
    without.use_pass2_triangle = false;
    MiningReport r1 = MineSerial(db, with);
    MiningReport r2 = MineSerial(db, without);
    ExpectSameFrequent(r1.frequent, r2.frequent);
    // The triangle (when it fits the cap) counts pass 2 in one scan.
    for (const std::vector<PassMetrics>& row : r1.metrics.per_pass) {
      const PassMetrics& pass = row[0];
      if (pass.k != 2) continue;
      const bool fits = TrianglePairCounter::Fits(
          r1.frequent.levels[0].size(), cap);
      const std::size_t chunks =
          cap == 0 ? 1 : (pass.num_candidates_global + cap - 1) / cap;
      EXPECT_EQ(pass.db_scans, fits ? 1u : chunks);
    }
  }
}

TEST(TrianglePathTest, CdOutputUnchangedByToggle) {
  TransactionDatabase db = testing::RandomDb(360, 30, 12, 813);
  for (int p : {1, 4}) {
    ParallelConfig with;
    with.apriori.minsup_count = 18;
    ParallelConfig without = with;
    without.apriori.use_pass2_triangle = false;
    MiningReport r1 = MineParallel(Algorithm::kCD, db, p, with);
    MiningReport r2 = MineParallel(Algorithm::kCD, db, p, without);
    ExpectSameFrequent(r1.frequent, r2.frequent);
  }
}

}  // namespace
}  // namespace pam
