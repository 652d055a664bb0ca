// Differential tests for the intra-rank counting team (DESIGN.md §11):
// counts AND SubsetStats must be byte-identical between the 1-thread path
// and every team size, for the flat hash-tree kernel and the pass-2
// triangle kernel, across tree shapes, page sizes, and full mining runs
// of every formulation. A chaos cell combines fault injection with the
// thread team so the TSan job exercises rank threads and counting workers
// together.

#include <algorithm>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/core/apriori_gen.h"
#include "pam/core/count_team.h"
#include "pam/core/serial_apriori.h"
#include "pam/hashtree/counting_pool.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/mp/fault.h"
#include "pam/parallel/driver.h"
#include "pam/util/prng.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using testing::RandomCandidates;

void ExpectStatsEqual(const SubsetStats& a, const SubsetStats& b,
                      const std::string& label) {
  EXPECT_EQ(a.transactions, b.transactions) << label;
  EXPECT_EQ(a.root_items_considered, b.root_items_considered) << label;
  EXPECT_EQ(a.root_items_skipped, b.root_items_skipped) << label;
  EXPECT_EQ(a.traversal_steps, b.traversal_steps) << label;
  EXPECT_EQ(a.distinct_leaf_visits, b.distinct_leaf_visits) << label;
  EXPECT_EQ(a.leaf_candidates_checked, b.leaf_candidates_checked) << label;
}

struct TeamRun {
  std::vector<Count> counts;
  SubsetStats stats;
  std::vector<std::uint64_t> shard_work;
};

TeamRun RunTeam(const TransactionDatabase& db,
                const ItemsetCollection& candidates, HashTreeConfig config,
                int threads) {
  std::vector<std::uint32_t> ids(candidates.size());
  std::iota(ids.begin(), ids.end(), 0u);
  HashTree tree(candidates, std::move(ids), config);
  TeamRun out;
  out.counts.assign(candidates.size(), 0);
  CountingPool pool(threads);
  TeamCounter team(&pool, &tree, std::span<Count>(out.counts), &out.stats);
  team.CountSlice(db, {0, db.size()});
  team.Finish();
  out.shard_work = team.shard_work();
  return out;
}

// The tentpole guarantee: the team's merged counts and stats are identical
// to the single-threaded kernel for every team size and tree shape
// (deterministic fixed-order strip merge, DESIGN.md §11).
TEST(ThreadedKernelTest, TreeCountsIdenticalAcrossTeamSizes) {
  const TransactionDatabase db = testing::RandomDb(400, 30, 10, 17);
  const ItemsetCollection candidates = RandomCandidates(3, 300, 30, 99);
  for (const int leaf_capacity : {1, 4, 16}) {
    for (const int fanout : {4, 8}) {
      HashTreeConfig config;
      config.leaf_capacity = leaf_capacity;
      config.fanout = fanout;
      const TeamRun base = RunTeam(db, candidates, config, 1);
      EXPECT_TRUE(base.shard_work.empty());  // degenerate team collects none
      for (const int threads : {2, 3, 4, 8}) {
        const std::string label = "leaf=" + std::to_string(leaf_capacity) +
                                  " fanout=" + std::to_string(fanout) +
                                  " threads=" + std::to_string(threads);
        const TeamRun run = RunTeam(db, candidates, config, threads);
        EXPECT_EQ(run.counts, base.counts) << label;
        ExpectStatsEqual(run.stats, base.stats, label);
        // The per-shard work decomposition must cover the whole pass.
        ASSERT_EQ(run.shard_work.size(),
                  static_cast<std::size_t>(threads)) << label;
        std::uint64_t shard_total = 0;
        for (const std::uint64_t w : run.shard_work) shard_total += w;
        EXPECT_EQ(shard_total, run.stats.traversal_steps +
                                   run.stats.leaf_candidates_checked)
            << label;
      }
    }
  }
}

// Same guarantee for the pass-2 triangle kernel: shard triangles merged in
// fixed order equal the single-threaded triangular count.
TEST(ThreadedKernelTest, TriangleCountsIdenticalAcrossTeamSizes) {
  const TransactionDatabase db = testing::RandomDb(500, 24, 9, 23);
  AprioriConfig cfg;
  cfg.minsup_count = 3;
  cfg.max_k = 1;
  const MiningReport pass1 = MineSerial(db, cfg);
  ASSERT_FALSE(pass1.frequent.levels.empty());
  const ItemsetCollection& f1 = pass1.frequent.levels[0];
  ASSERT_GE(f1.size(), 4u);
  const ItemsetCollection candidates = AprioriGen(f1);
  ASSERT_FALSE(candidates.empty());

  auto run = [&](int threads) {
    TeamRun out;
    TrianglePairCounter tri(f1);
    CountingPool pool(threads);
    TriangleTeam team(&pool, &tri, &out.stats);
    team.CountSlice(db, {0, db.size()});
    team.Finish();
    out.shard_work = team.shard_work();
    out.counts.assign(candidates.size(), 0);
    tri.Extract(candidates, std::span<Count>(out.counts));
    return out;
  };
  const TeamRun base = run(1);
  for (const int threads : {2, 4, 8}) {
    const std::string label = "threads=" + std::to_string(threads);
    const TeamRun team = run(threads);
    EXPECT_EQ(team.counts, base.counts) << label;
    ExpectStatsEqual(team.stats, base.stats, label);
    ASSERT_EQ(team.shard_work.size(), static_cast<std::size_t>(threads))
        << label;
  }
}

// End-to-end: every formulation's mined itemsets and counts are identical
// to the 1-thread serial reference at every team size and page size.
TEST(ThreadedKernelTest, MiningByteIdenticalAcrossThreadCounts) {
  const TransactionDatabase db = testing::SmallQuestDb();
  AprioriConfig serial_cfg;
  serial_cfg.minsup_fraction = 0.02;
  const auto reference = testing::SerialReference(db, serial_cfg);

  for (const int threads : {2, 4, 8}) {
    AprioriConfig threaded = serial_cfg;
    threaded.threads_per_rank = threads;
    testing::ExpectMatchesSerial(
        MineSerial(db, threaded), reference,
        "serial threads=" + std::to_string(threads));
  }

  const Algorithm algorithms[] = {Algorithm::kCD,  Algorithm::kDD,
                                  Algorithm::kDDComm, Algorithm::kIDD,
                                  Algorithm::kHD,  Algorithm::kHPA};
  for (const Algorithm algorithm : algorithms) {
    for (const int threads : {2, 4}) {
      for (const std::size_t page_bytes : {256u, 4096u}) {
        ParallelConfig cfg;
        cfg.apriori = serial_cfg;
        cfg.apriori.threads_per_rank = threads;
        cfg.page_bytes = page_bytes;
        const std::string label = std::string(AlgorithmName(algorithm)) +
                                  " threads=" + std::to_string(threads) +
                                  " page=" + std::to_string(page_bytes);
        testing::ExpectMatchesSerial(MineParallel(algorithm, db, 4, cfg),
                                     reference, label);
      }
    }
  }
}

// threads_per_rank and the shard work decomposition surface through the
// unified metrics matrix.
TEST(ThreadedKernelTest, ShardWorkSurfacesInMetrics) {
  const TransactionDatabase db = testing::SmallQuestDb();
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  cfg.apriori.threads_per_rank = 4;
  const MiningReport result = MineParallel(Algorithm::kCD, db, 2, cfg);
  ASSERT_GE(result.metrics.num_passes(), 2);
  const PassMetrics& pass2 = result.metrics.per_pass[1][0];
  EXPECT_EQ(pass2.threads_per_rank, 4);
  ASSERT_EQ(pass2.shard_subset_work.size(), 4u);
  std::uint64_t total = 0;
  for (const std::uint64_t w : pass2.shard_subset_work) total += w;
  EXPECT_EQ(total, pass2.subset.traversal_steps +
                       pass2.subset.leaf_candidates_checked);
}

// Fault injection and the counting team together: rank threads retransmit
// through a lossy transport while each rank's team counts in parallel.
// Exact results still required; this is the TSan job's combined cell.
TEST(ThreadedKernelTest, ChaosRunWithThreadTeamStaysExact) {
  const TransactionDatabase db = testing::TinyQuestDb();
  AprioriConfig serial_cfg;
  serial_cfg.minsup_fraction = 0.03;
  const auto reference = testing::SerialReference(db, serial_cfg);

  for (const Algorithm algorithm :
       {Algorithm::kCD, Algorithm::kIDD, Algorithm::kHPA}) {
    ParallelConfig cfg;
    cfg.apriori = serial_cfg;
    cfg.apriori.threads_per_rank = 4;
    cfg.fault = FaultConfig::Mixed(0.2, /*seed=*/7, /*max_retries=*/8);
    const MiningReport result = MineParallel(algorithm, db, 3, cfg);
    testing::ExpectMatchesSerial(
        result, reference,
        std::string(AlgorithmName(algorithm)) + " under mixed faults");
  }
}

}  // namespace
}  // namespace pam
