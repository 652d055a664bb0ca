// Static load balancing on skewed-prefix data (paper Section III-C): IDD's
// bin-packed candidate partition and HD's Table-II grids mine exactly what
// serial mines at every team size, and every pass's partition is
// bit-identical across ranks and across runs (pinned through
// PassMetrics::partition_digest), even under an intentionally faulty
// transport. Labeled `balance`; scripts/ci.sh runs it under ASan and TSan.
// The suite names predate the deletion of the feedback balancer
// (DESIGN.md §14); they are kept so the test ids stay stable.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/datagen/quest_gen.h"
#include "pam/mp/fault.h"
#include "pam/parallel/driver.h"
#include "testing/test_support.h"

namespace pam {
namespace {

// Skewed-prefix workload: a hot item prefix plus low pattern corruption
// piles candidates onto few first items (see bench_balance for the
// full-size version).
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

ParallelConfig SkewedConfig() {
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.015;
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

void ExpectMatchesSerialAcrossTeamSizes(Algorithm alg) {
  const TransactionDatabase db = SkewedDb();
  ParallelConfig cfg = SkewedConfig();
  const auto serial_flat = testing::SerialReference(db, cfg.apriori);
  ASSERT_FALSE(serial_flat.empty());
  for (int threads : {1, 2}) {
    cfg.apriori.threads_per_rank = threads;
    MiningReport result = MineParallel(alg, db, 8, cfg);
    testing::ExpectMatchesSerial(
        result, serial_flat,
        AlgorithmName(alg) + " threads=" + std::to_string(threads));
  }
}

TEST(AdaptiveBalanceTest, IddMatchesSerialAcrossTeamSizes) {
  ExpectMatchesSerialAcrossTeamSizes(Algorithm::kIDD);
}

TEST(AdaptiveBalanceTest, HdMatchesSerialAcrossTeamSizes) {
  ExpectMatchesSerialAcrossTeamSizes(Algorithm::kHD);
}

// ---------------------------------------------------------------------------
// Chaos: partitions and output under transport faults
// ---------------------------------------------------------------------------

TEST(AdaptiveBalanceChaosTest, FaultsChangeNeitherDecisionsNorOutput) {
  const TransactionDatabase db = SkewedDb();
  ParallelConfig clean_cfg = SkewedConfig();
  const auto serial_flat = testing::SerialReference(db, clean_cfg.apriori);
  ParallelConfig chaos_cfg = clean_cfg;
  chaos_cfg.fault = FaultConfig::Mixed(0.15, /*seed=*/99, /*max_retries=*/8);

  for (Algorithm alg : {Algorithm::kIDD, Algorithm::kHD}) {
    const std::string label = "chaos " + AlgorithmName(alg);
    MiningReport clean = MineParallel(alg, db, 8, clean_cfg);
    MiningReport chaos = MineParallel(alg, db, 8, chaos_cfg);
    // The faulty transport really fired and was repaired...
    EXPECT_GT(chaos.metrics.TotalFaultsInjected(), 0u) << label;
    // ...yet every pass's partition and the mined output are bit-identical
    // to the fault-free run (and to serial).
    EXPECT_EQ(Digests(chaos.metrics, label + " faulty"),
              Digests(clean.metrics, label + " clean"));
    testing::ExpectMatchesSerial(chaos, serial_flat, label);
  }
}

}  // namespace
}  // namespace pam
