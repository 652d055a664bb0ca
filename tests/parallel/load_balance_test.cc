// Adaptive load balancing (DESIGN.md §14): LoadModel unit behavior, the
// counting kernel's per-first-item work attribution, and the end-to-end
// guarantees of metrics-driven repartitioning — mined output byte-identical
// to serial, scheduling decisions bit-identical across ranks and across
// runs (pinned through PassMetrics::partition_digest), and imbalance no
// worse than the static bin-packed baseline on skewed-prefix data. The
// chaos cells re-check decision determinism under an intentionally faulty
// transport. Labeled `balance`; scripts/ci.sh runs it under ASan and TSan.

#include <cstdint>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/datagen/quest_gen.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/mp/fault.h"
#include "pam/parallel/driver.h"
#include "pam/parallel/load_model.h"
#include "testing/test_support.h"

namespace pam {
namespace {

// ---------------------------------------------------------------------------
// LoadModel units
// ---------------------------------------------------------------------------

ItemsetCollection Pairs(const std::vector<std::pair<Item, Item>>& pairs) {
  ItemsetCollection col(2);
  for (const auto& [a, b] : pairs) {
    std::vector<Item> s = {a, b};
    col.Add(ItemSpan(s.data(), 2));
  }
  col.SortLexicographic();
  return col;
}

// Feedback for one pass where each listed first item owns `candidates[i]`
// candidates that cost `work[i]` in total. Enough structure to calibrate.
LoadModel::PassFeedback Feedback(std::vector<Item> items,
                                 std::vector<std::uint32_t> candidates,
                                 std::vector<std::uint64_t> work) {
  LoadModel::PassFeedback fb;
  fb.first_items = std::move(items);
  fb.item_candidates = std::move(candidates);
  fb.item_work = std::move(work);
  fb.part_work = {std::accumulate(fb.item_work.begin(), fb.item_work.end(),
                                  std::uint64_t{0})};
  fb.transactions = 1000;
  fb.traversal_steps = fb.part_work[0] / 2;
  fb.leaf_checks = fb.part_work[0] - fb.traversal_steps;
  fb.num_candidates = std::accumulate(fb.item_candidates.begin(),
                                      fb.item_candidates.end(), 0u);
  fb.grid_rows = 1;
  return fb;
}

TEST(LoadModelTest, DistinctFirstItemsAscending) {
  ItemsetCollection col =
      Pairs({{3, 5}, {3, 9}, {7, 8}, {12, 13}, {12, 20}, {12, 21}});
  EXPECT_EQ(LoadModel::DistinctFirstItems(col),
            (std::vector<Item>{3, 7, 12}));
}

TEST(LoadModelTest, UncalibratedOffersNoCostsAndFallsBack) {
  LoadModel model(100);
  EXPECT_FALSE(model.HasCalibration());
  EXPECT_DOUBLE_EQ(model.DensityOf(7), 0.0);
  EXPECT_TRUE(model.ItemCosts(Pairs({{1, 2}, {3, 4}})).empty());
  EXPECT_EQ(model.ChooseGridRows(10000, 1000, 1 << 20, 8, /*fallback=*/4), 4);
}

TEST(LoadModelTest, ObserveLearnsRelativeDensities) {
  LoadModel model(100);
  // Items 3 and 9, equal candidate counts, item 3's candidates 3x as
  // expensive per candidate.
  model.Observe(Feedback({3, 9}, {10, 10}, {3000, 1000}));
  ASSERT_TRUE(model.HasCalibration());
  EXPECT_NEAR(model.DensityOf(3), 1.5, 1e-9);   // 300 per cand / 200 mean
  EXPECT_NEAR(model.DensityOf(9), 0.5, 1e-9);

  const ItemsetCollection next = Pairs({{3, 4}, {3, 5}, {9, 10}, {9, 11}});
  const std::vector<std::uint64_t> costs = model.ItemCosts(next);
  ASSERT_FALSE(costs.empty());
  EXPECT_NEAR(static_cast<double>(costs[3]) / static_cast<double>(costs[9]),
              3.0, 0.01);
  // Normalization: the mean candidate of the next pass costs kCostScale.
  const double mean = (2.0 * static_cast<double>(costs[3]) +
                       2.0 * static_cast<double>(costs[9])) /
                      4.0;
  EXPECT_NEAR(mean, static_cast<double>(LoadModel::kCostScale), 1.0);
  // An item never measured counts as average.
  EXPECT_EQ(costs[50], LoadModel::kCostScale);
}

TEST(LoadModelTest, DensityClampBoundsExtremeSkew) {
  LoadModel model(10);
  model.Observe(
      Feedback({1, 2}, {10, 10}, {std::uint64_t{1} << 40, 1}));
  const std::vector<std::uint64_t> costs =
      model.ItemCosts(Pairs({{1, 3}, {2, 3}}));
  ASSERT_FALSE(costs.empty());
  for (Item f : {Item{1}, Item{2}}) {
    EXPECT_GE(costs[f], LoadModel::kCostScale / LoadModel::kMaxSkew);
    EXPECT_LE(costs[f], LoadModel::kCostScale * LoadModel::kMaxSkew);
  }
}

TEST(LoadModelTest, EmaBlendsAcrossPasses) {
  LoadModel model(10);
  model.Observe(Feedback({1, 2}, {10, 10}, {3000, 1000}));  // density 1.5
  const double after_one = model.DensityOf(1);
  model.Observe(Feedback({1, 2}, {10, 10}, {1000, 1000}));  // density 1.0
  const double after_two = model.DensityOf(1);
  EXPECT_GT(after_one, after_two);
  EXPECT_GT(after_two, 1.0);  // blended, not replaced
  EXPECT_NEAR(after_two, 0.5 * (after_one + 1.0), 1e-9);
}

TEST(LoadModelTest, UniformCostsReproduceStaticPartition) {
  // After observing a perfectly uniform pass, the weighted partition must
  // be bit-identical to the static one — adaptive mode may only deviate
  // when the measurements do.
  LoadModel model(40);
  model.Observe(Feedback({0, 1, 2, 3}, {5, 5, 5, 5}, {800, 800, 800, 800}));
  std::vector<std::pair<Item, Item>> pairs;
  for (Item f = 0; f < 8; ++f) {
    for (Item s = 10; s < 13; ++s) pairs.push_back({f, s});
  }
  const ItemsetCollection col = Pairs(pairs);
  const std::vector<std::uint64_t> costs = model.ItemCosts(col);
  ASSERT_FALSE(costs.empty());
  const CandidatePartition statik =
      PartitionByPrefix(col, 40, 3, PrefixStrategy::kBinPacked, true);
  const CandidatePartition weighted = PartitionByPrefix(
      col, 40, 3, PrefixStrategy::kBinPacked, true, &costs);
  EXPECT_EQ(PartitionDigest(weighted), PartitionDigest(statik));
}

// ---------------------------------------------------------------------------
// Kernel work attribution
// ---------------------------------------------------------------------------

TEST(AttributionTest, ItemWorkAndLeafVisitsAreExact) {
  // Synthetic 3-itemset candidates over a small universe, counted over a
  // deterministic Quest workload with the identity-root tree and full
  // attribution on; a plain hashed-root tree provides the reference.
  const TransactionDatabase db = testing::SeededQuestDb(17);
  AprioriConfig mine_cfg;
  mine_cfg.minsup_fraction = 0.02;
  mine_cfg.max_k = 3;
  const MiningReport serial = MineSerial(db, mine_cfg);
  ASSERT_GE(serial.frequent.levels.size(), 3u);
  const ItemsetCollection& candidates = serial.frequent.levels[2];
  ASSERT_GT(candidates.size(), 20u);
  std::vector<std::uint32_t> all_ids(candidates.size());
  std::iota(all_ids.begin(), all_ids.end(), 0);

  HashTreeConfig plain_cfg;
  plain_cfg.identity_root = false;
  HashTreeConfig identity_cfg;
  identity_cfg.identity_root = true;
  HashTree plain(candidates, all_ids, plain_cfg);
  HashTree identity(candidates, all_ids, identity_cfg);

  std::vector<Count> plain_counts(candidates.size(), 0);
  std::vector<Count> identity_counts(candidates.size(), 0);
  SubsetStats stats;
  std::vector<std::uint64_t> item_work(db.NumItems(), 0);
  std::vector<std::uint64_t> leaf_visits(identity.num_leaves(), 0);
  for (std::size_t t = 0; t < db.size(); ++t) {
    plain.Subset(db.Transaction(t), plain_counts, nullptr);
    identity.Subset(db.Transaction(t), identity_counts, &stats, nullptr,
                    std::span<std::uint64_t>(item_work),
                    std::span<std::uint64_t>(leaf_visits));
  }

  // Counts are shape-independent: identity root changes traversal, never
  // the support of any candidate.
  EXPECT_EQ(identity_counts, plain_counts);

  // Every unit of measured subset work is attributed to exactly one root
  // item...
  const std::uint64_t attributed =
      std::accumulate(item_work.begin(), item_work.end(), std::uint64_t{0});
  EXPECT_EQ(attributed, stats.traversal_steps + stats.leaf_candidates_checked);

  // ...and the per-leaf visit counts expand to exactly the candidate
  // checks the stats saw (each candidate of a leaf is checked once per
  // distinct visit).
  std::vector<std::uint64_t> cand_checks(candidates.size(), 0);
  identity.AccumulateCandidateChecks(leaf_visits, cand_checks);
  const std::uint64_t checks = std::accumulate(
      cand_checks.begin(), cand_checks.end(), std::uint64_t{0});
  EXPECT_EQ(checks, stats.leaf_candidates_checked);
  const std::uint64_t visits = std::accumulate(
      leaf_visits.begin(), leaf_visits.end(), std::uint64_t{0});
  EXPECT_EQ(visits, stats.distinct_leaf_visits);
}

// ---------------------------------------------------------------------------
// End-to-end adaptive mining
// ---------------------------------------------------------------------------

// Skewed-prefix workload for the end-to-end cells: a hot item prefix plus
// low pattern corruption, the regime where candidate counts misjudge
// per-candidate cost (see bench_balance for the full-size version).
TransactionDatabase SkewedDb() {
  QuestConfig q;
  q.num_transactions = 1000;
  q.num_items = 500;
  q.avg_transaction_len = 12;
  q.avg_pattern_len = 5;
  q.num_patterns = 60;
  q.corruption_mean = 0.2;
  q.hot_items = 20;
  q.hot_item_mass = 0.4;
  q.seed = 42;
  return GenerateQuest(q);
}

ParallelConfig AdaptiveConfig() {
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.015;
  cfg.adaptive_balance = true;
  cfg.hd_threshold_m = 100;  // force HD onto real grids
  return cfg;
}

// Per-pass rank-0 partition digests, asserting every rank agrees first.
std::vector<std::uint64_t> Digests(const RunMetrics& metrics,
                                   const std::string& label) {
  std::vector<std::uint64_t> out;
  for (const auto& pass : metrics.per_pass) {
    for (const PassMetrics& m : pass) {
      EXPECT_EQ(m.partition_digest, pass[0].partition_digest)
          << label << " k=" << m.k << " rank disagreement";
    }
    out.push_back(pass[0].partition_digest);
  }
  return out;
}

std::uint64_t TotalRebalanced(const RunMetrics& metrics) {
  std::uint64_t total = 0;
  for (const auto& pass : metrics.per_pass) total += pass[0].rebalanced_candidates;
  return total;
}

// Sum over passes of max and mean per-rank subset work; the ratio is the
// run's aggregate imbalance (per-pass maxima are what serialize a lockstep
// run, so this is the modeled critical path over the modeled average).
double TotalImbalance(const RunMetrics& metrics) {
  double total_max = 0.0;
  double total_mean = 0.0;
  for (int p = 1; p < metrics.num_passes(); ++p) {
    const LoadSummary s = metrics.SubsetWorkBalance(p);
    total_max += s.max;
    total_mean += s.mean;
  }
  return total_mean > 0.0 ? total_max / total_mean : 1.0;
}

TEST(AdaptiveBalanceTest, IddMatchesSerialAcrossTeamSizes) {
  const TransactionDatabase db = SkewedDb();
  ParallelConfig cfg = AdaptiveConfig();
  const auto serial_flat = testing::SerialReference(db, cfg.apriori);
  ASSERT_FALSE(serial_flat.empty());
  for (int threads : {1, 2}) {
    cfg.apriori.threads_per_rank = threads;
    MiningReport result = MineParallel(Algorithm::kIDD, db, 8, cfg);
    testing::ExpectMatchesSerial(result, serial_flat,
                                 "adaptive IDD threads=" +
                                     std::to_string(threads));
  }
}

TEST(AdaptiveBalanceTest, HdMatchesSerialAcrossTeamSizes) {
  const TransactionDatabase db = SkewedDb();
  ParallelConfig cfg = AdaptiveConfig();
  const auto serial_flat = testing::SerialReference(db, cfg.apriori);
  ASSERT_FALSE(serial_flat.empty());
  for (int threads : {1, 2}) {
    cfg.apriori.threads_per_rank = threads;
    MiningReport result = MineParallel(Algorithm::kHD, db, 8, cfg);
    testing::ExpectMatchesSerial(result, serial_flat,
                                 "adaptive HD threads=" +
                                     std::to_string(threads));
  }
}

TEST(AdaptiveBalanceTest, RepartitioningKicksInDeterministically) {
  const TransactionDatabase db = SkewedDb();
  const ParallelConfig adaptive_cfg = AdaptiveConfig();
  ParallelConfig static_cfg = adaptive_cfg;
  static_cfg.adaptive_balance = false;

  MiningReport a = MineParallel(Algorithm::kIDD, db, 8, adaptive_cfg);
  MiningReport b = MineParallel(Algorithm::kIDD, db, 8, adaptive_cfg);
  MiningReport s = MineParallel(Algorithm::kIDD, db, 8, static_cfg);

  // Identical runs make identical decisions, pass for pass.
  EXPECT_EQ(Digests(a.metrics, "adaptive run A"),
            Digests(b.metrics, "adaptive run B"));

  // The measured weights actually moved candidates off the static packing
  // on this workload, and the feedback collective was charged.
  EXPECT_GT(TotalRebalanced(a.metrics), 0u);
  EXPECT_NE(Digests(a.metrics, "adaptive"), Digests(s.metrics, "static"));
  std::uint64_t sync_words = 0;
  for (const auto& pass : a.metrics.per_pass) {
    sync_words += pass[0].balance_sync_words;
  }
  EXPECT_GT(sync_words, 0u);
  // The static run never rebalances and never pays the collective.
  EXPECT_EQ(TotalRebalanced(s.metrics), 0u);
  for (const auto& pass : s.metrics.per_pass) {
    EXPECT_EQ(pass[0].balance_sync_words, 0u);
  }
}

TEST(AdaptiveBalanceTest, ImprovesImbalanceOnSkewedPrefixData) {
  const TransactionDatabase db = SkewedDb();
  const ParallelConfig adaptive_cfg = AdaptiveConfig();
  ParallelConfig static_cfg = adaptive_cfg;
  static_cfg.adaptive_balance = false;
  const double adaptive =
      TotalImbalance(MineParallel(Algorithm::kIDD, db, 8, adaptive_cfg).metrics);
  const double statik =
      TotalImbalance(MineParallel(Algorithm::kIDD, db, 8, static_cfg).metrics);
  // Deterministic work counters, so this is a pinned regression guard,
  // not a flaky perf assertion. bench_balance records the full-size
  // scenario where the excess shrinks by >= 25%.
  EXPECT_LT(adaptive, statik);
}

TEST(AdaptiveBalanceTest, ContiguousAblationStaysStatic) {
  // The contiguous partition ablation has no weights to re-pack: with
  // adaptive_balance on it must make bit-identical decisions to the static
  // contiguous run and never report a repartition.
  const TransactionDatabase db = SkewedDb();
  ParallelConfig cfg = AdaptiveConfig();
  cfg.prefix_strategy = PrefixStrategy::kContiguous;
  ParallelConfig static_cfg = cfg;
  static_cfg.adaptive_balance = false;
  MiningReport a = MineParallel(Algorithm::kIDD, db, 8, cfg);
  MiningReport s = MineParallel(Algorithm::kIDD, db, 8, static_cfg);
  EXPECT_EQ(Digests(a.metrics, "adaptive contiguous"),
            Digests(s.metrics, "static contiguous"));
  EXPECT_EQ(TotalRebalanced(a.metrics), 0u);
}

// ---------------------------------------------------------------------------
// Chaos: decisions and output under transport faults
// ---------------------------------------------------------------------------

TEST(AdaptiveBalanceChaosTest, FaultsChangeNeitherDecisionsNorOutput) {
  const TransactionDatabase db = SkewedDb();
  ParallelConfig clean_cfg = AdaptiveConfig();
  const auto serial_flat = testing::SerialReference(db, clean_cfg.apriori);
  ParallelConfig chaos_cfg = clean_cfg;
  chaos_cfg.fault = FaultConfig::Mixed(0.15, /*seed=*/99, /*max_retries=*/8);

  for (Algorithm alg : {Algorithm::kIDD, Algorithm::kHD}) {
    const std::string label =
        std::string("chaos adaptive ") + AlgorithmName(alg);
    MiningReport clean = MineParallel(alg, db, 8, clean_cfg);
    MiningReport chaos = MineParallel(alg, db, 8, chaos_cfg);
    // The faulty transport really fired and was repaired...
    EXPECT_GT(chaos.metrics.TotalFaultsInjected(), 0u) << label;
    // ...yet every pass's partition decision and the mined output are
    // bit-identical to the fault-free run (and to serial).
    EXPECT_EQ(Digests(chaos.metrics, label + " faulty"),
              Digests(clean.metrics, label + " clean"));
    testing::ExpectMatchesSerial(chaos, serial_flat, label);
    EXPECT_GT(TotalRebalanced(chaos.metrics), 0u) << label;
  }
}

}  // namespace
}  // namespace pam
