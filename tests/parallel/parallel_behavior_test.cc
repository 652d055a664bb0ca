#include <string>

#include <gtest/gtest.h>

#include "pam/api/session.h"
#include "pam/datagen/quest_gen.h"
#include "pam/model/cost_model.h"
#include "pam/model/machine.h"
#include "pam/parallel/driver.h"
#include "testing/test_support.h"

namespace pam {
namespace {

TransactionDatabase TestDb() {
  QuestConfig q;
  q.num_transactions = 800;
  q.num_items = 120;
  q.avg_transaction_len = 10;
  q.avg_pattern_len = 4;
  q.num_patterns = 60;
  q.seed = 13;
  return GenerateQuest(q);
}

ParallelConfig BaseConfig() {
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  cfg.page_bytes = 1024;
  return cfg;
}

// Section IV / Figure 11: IDD's bitmap + prefix partitioning cuts the
// distinct-leaf-visit work per rank well below DD's for the same pass.
TEST(ParallelBehaviorTest, IddVisitsFewerLeavesThanDd) {
  TransactionDatabase db = TestDb();
  const int p = 4;
  MiningReport dd = MineParallel(Algorithm::kDD, db, p, BaseConfig());
  MiningReport idd = MineParallel(Algorithm::kIDD, db, p, BaseConfig());
  ASSERT_EQ(dd.metrics.per_pass.size(), idd.metrics.per_pass.size());

  // Compare the pass with the most candidates (usually k=2 or 3).
  std::size_t best_pass = 1;
  std::size_t best_m = 0;
  for (std::size_t i = 1; i < dd.metrics.per_pass.size(); ++i) {
    const std::size_t m = dd.metrics.per_pass[i][0].num_candidates_global;
    if (m > best_m) {
      best_m = m;
      best_pass = i;
    }
  }
  const SubsetStats dd_stats =
      dd.metrics.PassSubsetStats(static_cast<int>(best_pass));
  const SubsetStats idd_stats =
      idd.metrics.PassSubsetStats(static_cast<int>(best_pass));
  EXPECT_LT(idd_stats.distinct_leaf_visits, dd_stats.distinct_leaf_visits);
  EXPECT_LT(idd_stats.traversal_steps, dd_stats.traversal_steps);
  EXPECT_GT(idd_stats.root_items_skipped, 0u);
}

// Pass 1 is CD's count-and-reduce in every formulation, so every miner
// records CD's pass-1 row: a 1 x P grid, the slice's wire bytes and the
// configured team size. The cost model then prices every formulation's
// pass-1 reduction over all P ranks, HD's included.
TEST(ParallelBehaviorTest, PassOneIsTheSameInEveryFormulation) {
  const TransactionDatabase db = TestDb();
  const int p = 4;
  ParallelConfig cfg = BaseConfig();
  cfg.apriori.threads_per_rank = 2;
  auto pass_one = [&](Algorithm algorithm) {
    std::vector<PassMetrics> rows =
        MineParallel(algorithm, db, p, cfg).metrics.per_pass.at(0);
    for (PassMetrics& m : rows) m.wall_seconds = 0.0;
    return rows;
  };
  const std::vector<PassMetrics> cd = pass_one(Algorithm::kCD);
  ASSERT_EQ(cd.size(), static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    const PassMetrics& m = cd[static_cast<std::size_t>(r)];
    EXPECT_EQ(m.k, 1);
    EXPECT_EQ(m.grid_rows, 1);
    EXPECT_EQ(m.grid_cols, p);
    EXPECT_EQ(m.local_db_wire_bytes, db.WireBytes(db.RankSlice(r, p)));
    EXPECT_EQ(m.threads_per_rank, 2);
  }

  const CostModel t3e(MachineModel::CrayT3E());
  const double cd_reduction = t3e.PassTime(Algorithm::kCD, cd).reduction;
  EXPECT_GT(cd_reduction, 0.0);
  for (Algorithm alg : {Algorithm::kDD, Algorithm::kDDComm, Algorithm::kIDD,
                        Algorithm::kHD, Algorithm::kHPA}) {
    const std::vector<PassMetrics> rows = pass_one(alg);
    EXPECT_TRUE(rows == cd) << AlgorithmName(alg);
    EXPECT_EQ(t3e.PassTime(alg, rows).reduction, cd_reduction)
        << AlgorithmName(alg);
  }
}

// A pass-2 triangle fits on every rank, so it is Count Distribution in
// every formulation: each rank counts its own slice, one reduction of |C_2|
// words completes the counts, and no transaction moves. Every miner records
// CD's pass-2 row, and the cost model prices it as CD's. Single-source IDD
// counts where the data lives: rank 0 counts the whole database.
TEST(ParallelBehaviorTest, TrianglePassIsCountDistributionInEveryFormulation) {
  const TransactionDatabase db = TestDb();
  const CostModel t3e(MachineModel::CrayT3E());
  auto pass_two = [&](Algorithm algorithm, int p, const ParallelConfig& cfg) {
    std::vector<PassMetrics> rows =
        MineParallel(algorithm, db, p, cfg).metrics.per_pass.at(1);
    std::uint64_t transactions = 0;
    for (PassMetrics& m : rows) {
      EXPECT_EQ(m.k, 2);
      EXPECT_EQ(m.data_bytes_sent, 0u) << AlgorithmName(algorithm);
      transactions += m.transactions_processed;
      m.wall_seconds = 0.0;
    }
    EXPECT_EQ(transactions, db.size()) << AlgorithmName(algorithm);
    return rows;
  };
  for (int p : {1, 3, 4}) {
    const std::vector<PassMetrics> cd =
        pass_two(Algorithm::kCD, p, BaseConfig());
    ASSERT_EQ(cd.size(), static_cast<std::size_t>(p));
    EXPECT_EQ(cd[0].tree_build_inserts, 0u);  // the triangle, not a tree
    EXPECT_EQ(cd[0].reduction_words, cd[0].num_candidates_global);
    for (Algorithm alg : {Algorithm::kDD, Algorithm::kDDComm,
                          Algorithm::kIDD, Algorithm::kHD, Algorithm::kHPA}) {
      const std::vector<PassMetrics> rows = pass_two(alg, p, BaseConfig());
      EXPECT_TRUE(rows == cd) << AlgorithmName(alg) << " P=" << p;
      EXPECT_EQ(t3e.PassTime(alg, rows).Total(),
                t3e.PassTime(Algorithm::kCD, cd).Total())
          << AlgorithmName(alg) << " P=" << p;
    }
  }

  ParallelConfig single_source = BaseConfig();
  single_source.single_source = true;
  const std::vector<PassMetrics> rows =
      pass_two(Algorithm::kIDD, 4, single_source);
  EXPECT_EQ(rows[0].transactions_processed, db.size());
  for (const PassMetrics& m : rows) {
    EXPECT_EQ(m.grid_cols, 4);
    EXPECT_EQ(m.reduction_words, m.num_candidates_global);
    EXPECT_EQ(m.broadcast_words, 0u);
  }
}

// Every F_k a run returns holds its own bytes, not the |C_k| capacity its
// pass counted in: reports and the serving result cache keep these levels.
TEST(ParallelBehaviorTest, ReturnedLevelsHoldNoCandidateCapacity) {
  const TransactionDatabase db = TestDb();
  for (Algorithm alg : {Algorithm::kCD, Algorithm::kDD, Algorithm::kIDD,
                        Algorithm::kHD, Algorithm::kHPA}) {
    const MiningReport result = MineParallel(alg, db, 3, BaseConfig());
    ASSERT_GE(result.frequent.levels.size(), 3u) << AlgorithmName(alg);
    for (const ItemsetCollection& level : result.frequent.levels) {
      EXPECT_EQ(level.ResidentBytes(),
                level.size() * (static_cast<std::size_t>(level.k()) *
                                    sizeof(Item) +
                                sizeof(Count)))
          << AlgorithmName(alg) << " k=" << level.k();
    }
  }
}

// CD performs no redundant work: its total leaf visits match a P=1 run.
TEST(ParallelBehaviorTest, CdTotalWorkIndependentOfP) {
  TransactionDatabase db = TestDb();
  MiningReport p1 = MineParallel(Algorithm::kCD, db, 1, BaseConfig());
  MiningReport p4 = MineParallel(Algorithm::kCD, db, 4, BaseConfig());
  ASSERT_EQ(p1.metrics.per_pass.size(), p4.metrics.per_pass.size());
  for (std::size_t pass = 1; pass < p1.metrics.per_pass.size(); ++pass) {
    EXPECT_EQ(p1.metrics.TotalLeafVisits(static_cast<int>(pass)),
              p4.metrics.TotalLeafVisits(static_cast<int>(pass)))
        << "pass " << pass;
  }
}

// DD's total leaf-visit work *grows* with P (the redundant work the paper
// analyzes); IDD's stays near the serial amount.
TEST(ParallelBehaviorTest, DdRedundantWorkGrowsWithP) {
  TransactionDatabase db = TestDb();
  MiningReport serial = MineParallel(Algorithm::kCD, db, 1, BaseConfig());
  MiningReport dd2 = MineParallel(Algorithm::kDD, db, 2, BaseConfig());
  MiningReport dd8 = MineParallel(Algorithm::kDD, db, 8, BaseConfig());
  MiningReport idd8 = MineParallel(Algorithm::kIDD, db, 8, BaseConfig());

  std::uint64_t serial_total = 0;
  std::uint64_t dd2_total = 0;
  std::uint64_t dd8_total = 0;
  std::uint64_t idd8_total = 0;
  for (std::size_t pass = 1; pass < serial.metrics.per_pass.size(); ++pass) {
    serial_total += serial.metrics.TotalLeafVisits(static_cast<int>(pass));
    dd2_total += dd2.metrics.TotalLeafVisits(static_cast<int>(pass));
    dd8_total += dd8.metrics.TotalLeafVisits(static_cast<int>(pass));
    idd8_total += idd8.metrics.TotalLeafVisits(static_cast<int>(pass));
  }
  EXPECT_GT(dd8_total, dd2_total);
  EXPECT_GT(dd8_total, serial_total);
  EXPECT_LT(idd8_total, dd8_total);
}

// Data movement volume: with P ranks, DD and IDD both ship each local
// block P-1 times, so total bytes ~ (P-1) * database wire size.
TEST(ParallelBehaviorTest, RingShipsExpectedVolume) {
  TransactionDatabase db = TestDb();
  const int p = 4;
  ParallelConfig cfg = BaseConfig();
  // A triangle pass moves no pages; count pass 2 through the tree too.
  cfg.apriori.use_pass2_triangle = false;
  MiningReport idd = MineParallel(Algorithm::kIDD, db, p, cfg);
  const std::uint64_t db_bytes = db.WireBytes({0, db.size()});
  const std::size_t passes = idd.metrics.per_pass.size();
  ASSERT_GT(passes, 1u);
  std::uint64_t total = 0;
  for (std::size_t pass = 1; pass < passes; ++pass) {
    total += idd.metrics.TotalDataBytes(static_cast<int>(pass));
  }
  // Each counting pass (k >= 2) ships (P-1) * |DB| bytes in total.
  const std::uint64_t expected =
      static_cast<std::uint64_t>(passes - 1) * (p - 1) * db_bytes;
  EXPECT_EQ(total, expected);
}

// CD moves no transaction data at all.
TEST(ParallelBehaviorTest, CdMovesNoTransactionData) {
  TransactionDatabase db = TestDb();
  MiningReport cd = MineParallel(Algorithm::kCD, db, 4, BaseConfig());
  for (std::size_t pass = 0; pass < cd.metrics.per_pass.size(); ++pass) {
    EXPECT_EQ(cd.metrics.TotalDataBytes(static_cast<int>(pass)), 0u);
  }
}

// In CD every rank processes N/P transactions; in DD/IDD every rank
// processes all N; in HD every rank processes G*N/P.
TEST(ParallelBehaviorTest, TransactionsProcessedPerAlgorithm) {
  TransactionDatabase db = TestDb();
  const int p = 4;
  ParallelConfig cfg = BaseConfig();
  cfg.hd_threshold_m = 1;  // force G = P (IDD-like)
  // A triangle pass counts N/P per rank in every formulation.
  cfg.apriori.use_pass2_triangle = false;

  MiningReport cd = MineParallel(Algorithm::kCD, db, p, cfg);
  MiningReport idd = MineParallel(Algorithm::kIDD, db, p, cfg);
  MiningReport hd = MineParallel(Algorithm::kHD, db, p, cfg);

  const std::uint64_t n = db.size();
  for (std::size_t pass = 1; pass < cd.metrics.per_pass.size(); ++pass) {
    EXPECT_EQ(cd.metrics.TotalTransactionsProcessed(static_cast<int>(pass)),
              n);
  }
  for (std::size_t pass = 1; pass < idd.metrics.per_pass.size(); ++pass) {
    EXPECT_EQ(idd.metrics.TotalTransactionsProcessed(static_cast<int>(pass)),
              n * p);
  }
  for (std::size_t pass = 1; pass < hd.metrics.per_pass.size(); ++pass) {
    const int rows = hd.metrics.per_pass[pass][0].grid_rows;
    EXPECT_EQ(hd.metrics.TotalTransactionsProcessed(static_cast<int>(pass)),
              n * static_cast<std::uint64_t>(rows));
  }
}

// HD with a huge threshold never forms a grid (G=1) and becomes CD: no
// data movement, full-size reductions.
TEST(ParallelBehaviorTest, HdDegeneratesToCdWithHugeThreshold) {
  TransactionDatabase db = TestDb();
  ParallelConfig cfg = BaseConfig();
  cfg.hd_threshold_m = 100000000;
  MiningReport hd = MineParallel(Algorithm::kHD, db, 4, cfg);
  for (std::size_t pass = 1; pass < hd.metrics.per_pass.size(); ++pass) {
    const auto& row = hd.metrics.per_pass[pass];
    EXPECT_EQ(row[0].grid_rows, 1);
    EXPECT_EQ(row[0].grid_cols, 4);
    EXPECT_EQ(hd.metrics.TotalDataBytes(static_cast<int>(pass)), 0u);
  }
}

// HD with threshold 1 always forms G=P (pure IDD): no reductions.
TEST(ParallelBehaviorTest, HdDegeneratesToIddWithThresholdOne) {
  TransactionDatabase db = TestDb();
  ParallelConfig cfg = BaseConfig();
  cfg.hd_threshold_m = 1;
  // A triangle pass is CD's 1 x P pass; grid the tree passes only.
  cfg.apriori.use_pass2_triangle = false;
  MiningReport hd = MineParallel(Algorithm::kHD, db, 4, cfg);
  for (std::size_t pass = 1; pass < hd.metrics.per_pass.size(); ++pass) {
    const auto& row = hd.metrics.per_pass[pass];
    // Tiny final passes may have fewer candidates than P, where
    // G = ceil(M/1) = M < P is the correct grid; only passes with at
    // least P candidates must be pure IDD (G = P, no reduction).
    if (row[0].num_candidates_global < 4) continue;
    EXPECT_EQ(row[0].grid_rows, 4);
    EXPECT_EQ(row[0].grid_cols, 1);
    for (const PassMetrics& m : row) EXPECT_EQ(m.reduction_words, 0u);
  }
}

// The bitmap ablation: IDD without root filtering does strictly more
// traversal work.
TEST(ParallelBehaviorTest, BitmapAblationIncreasesWork) {
  TransactionDatabase db = TestDb();
  ParallelConfig with = BaseConfig();
  ParallelConfig without = BaseConfig();
  without.idd_use_bitmap = false;
  MiningReport a = MineParallel(Algorithm::kIDD, db, 4, with);
  MiningReport b = MineParallel(Algorithm::kIDD, db, 4, without);
  std::uint64_t with_steps = 0;
  std::uint64_t without_steps = 0;
  for (std::size_t pass = 1; pass < a.metrics.per_pass.size(); ++pass) {
    with_steps +=
        a.metrics.PassSubsetStats(static_cast<int>(pass)).traversal_steps;
    without_steps +=
        b.metrics.PassSubsetStats(static_cast<int>(pass)).traversal_steps;
  }
  EXPECT_LT(with_steps, without_steps);
}

// Section III-E's HPA analysis: for pass k, HPA ships (|t| choose k)
// subsets per transaction, so its per-pass data volume grows with k while
// IDD's is flat (one copy of the database per pass regardless of k).
TEST(ParallelBehaviorTest, HpaVolumeGrowsWithKUnlikeIdd) {
  TransactionDatabase db = TestDb();
  const int p = 4;
  ParallelConfig cfg = BaseConfig();
  cfg.apriori.minsup_fraction = 0.01;  // deep enough for several passes
  // Route pass 2's subsets too, rather than count the triangle.
  cfg.apriori.use_pass2_triangle = false;
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, p, cfg);
  MiningReport idd = MineParallel(Algorithm::kIDD, db, p, cfg);
  ASSERT_GE(hpa.metrics.num_passes(), 4);

  // IDD ships the same bytes every pass; HPA's bytes per pass track the
  // subset count (grows from k=2 to k=3 on this workload).
  const std::uint64_t idd2 = idd.metrics.TotalDataBytes(1);
  const std::uint64_t idd3 = idd.metrics.TotalDataBytes(2);
  EXPECT_EQ(idd2, idd3);
  const std::uint64_t hpa2 = hpa.metrics.TotalDataBytes(1);
  const std::uint64_t hpa3 = hpa.metrics.TotalDataBytes(2);
  EXPECT_GT(hpa3, hpa2);
  // And by pass 3, HPA's volume exceeds IDD's (the paper's "much larger
  // communication volume than DD and IDD for k > 2").
  EXPECT_GT(hpa3, idd3);
}

// HPA's hash ownership cannot be balanced deliberately, but on a uniform
// hash it is statistically even: candidate counts across ranks stay
// within a loose band.
TEST(ParallelBehaviorTest, HpaHashOwnershipRoughlyEven) {
  TransactionDatabase db = TestDb();
  ParallelConfig cfg = BaseConfig();
  // A triangle pass owns all of C_2 on every rank; hash pass 2 too.
  cfg.apriori.use_pass2_triangle = false;
  MiningReport hpa = MineParallel(Algorithm::kHPA, db, 4, cfg);
  for (std::size_t pass = 1; pass < hpa.metrics.per_pass.size(); ++pass) {
    const auto& row = hpa.metrics.per_pass[pass];
    const std::size_t m = row[0].num_candidates_global;
    if (m < 200) continue;  // tiny passes are noisy
    std::size_t total_local = 0;
    for (const PassMetrics& r : row) {
      total_local += r.num_candidates_local;
      EXPECT_LT(r.num_candidates_local, m / 2);
    }
    EXPECT_EQ(total_local, m);
  }
}

// DD classic and DD+comm move the same volume; only the pattern differs
// (message counts differ: all-to-all sends P-1 messages per page from the
// owner, the ring forwards pages hop by hop).
TEST(ParallelBehaviorTest, DdCommVolumeMatchesDd) {
  TransactionDatabase db = TestDb();
  const int p = 4;
  MiningReport dd = MineParallel(Algorithm::kDD, db, p, BaseConfig());
  MiningReport ddc = MineParallel(Algorithm::kDDComm, db, p, BaseConfig());
  for (std::size_t pass = 1; pass < dd.metrics.per_pass.size(); ++pass) {
    EXPECT_EQ(dd.metrics.TotalDataBytes(static_cast<int>(pass)),
              ddc.metrics.TotalDataBytes(static_cast<int>(pass)))
        << "pass " << pass;
  }
}

// The hash tree's shape reaches every formulation: a run with the default
// config does exactly the counting work of a run pinning the default shape
// (fanout 64, 8-candidate leaves), and a run pinning another shape mines
// the same itemsets with different traversal work. Every run turns the
// specialised kernels off, so every pass counts through the hash tree (by
// default passes k >= 3 count through the candidate trie).
TEST(ParallelBehaviorTest, TreeDefaultsReachEveryFormulation) {
  const TransactionDatabase db = testing::SeededQuestDb(404);
  const int p = 2;
  ParallelConfig defaults = BaseConfig();
  defaults.apriori.use_pass2_triangle = false;
  ParallelConfig pinned = defaults;
  pinned.apriori.tree = HashTreeConfig{64, 8};
  ParallelConfig other = defaults;
  other.apriori.tree = HashTreeConfig{8, 16};
  auto mine = [&](MiningAlgorithm algorithm, const ParallelConfig& config) {
    MiningRequest request;
    request.algorithm = algorithm;
    request.num_ranks = p;
    request.config = config;
    MiningSession session;
    return session.Run(request, db);
  };
  for (const MiningAlgorithm alg :
       {MiningAlgorithm::kSerial, MiningAlgorithm::kCD, MiningAlgorithm::kDD,
        MiningAlgorithm::kDDComm, MiningAlgorithm::kIDD,
        MiningAlgorithm::kHD}) {
    const std::string name = MiningAlgorithmName(alg);
    const MiningReport by_default = mine(alg, defaults);
    const MiningReport by_pin = mine(alg, pinned);
    const MiningReport by_other = mine(alg, other);
    EXPECT_EQ(testing::Flatten(by_default.frequent),
              testing::Flatten(by_pin.frequent))
        << name;
    EXPECT_EQ(testing::Flatten(by_default.frequent),
              testing::Flatten(by_other.frequent))
        << name;
    const int passes = by_default.metrics.num_passes();
    ASSERT_EQ(by_pin.metrics.num_passes(), passes) << name;
    ASSERT_EQ(by_other.metrics.num_passes(), passes) << name;
    std::uint64_t default_steps = 0;
    std::uint64_t other_steps = 0;
    for (int pass = 1; pass < passes; ++pass) {
      const SubsetStats stats = by_default.metrics.PassSubsetStats(pass);
      EXPECT_TRUE(stats == by_pin.metrics.PassSubsetStats(pass))
          << name << " pass " << pass;
      default_steps += stats.traversal_steps;
      other_steps += by_other.metrics.PassSubsetStats(pass).traversal_steps;
    }
    EXPECT_GT(default_steps, 0u) << name;
    EXPECT_NE(default_steps, other_steps) << name;
  }
}

}  // namespace
}  // namespace pam
