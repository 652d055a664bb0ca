// Golden regression tests: a fixed-seed workload must produce exactly
// these frequent-itemset counts per pass, for the serial miner and for
// every parallel formulation. Any change to the generator, apriori_gen,
// the hash tree, or the parallel protocols that alters behavior shows up
// here immediately.

#include <cstdint>

#include <gtest/gtest.h>

#include "pam/api/session.h"
#include "pam/core/serial_apriori.h"
#include "pam/datagen/quest_gen.h"

namespace pam {
namespace {

TransactionDatabase GoldenDb() {
  QuestConfig q;
  q.num_transactions = 1000;
  q.num_items = 100;
  q.avg_transaction_len = 8;
  q.avg_pattern_len = 3;
  q.num_patterns = 40;
  q.correlation = 0.5;
  q.corruption_mean = 0.5;
  q.seed = 20260706;
  return GenerateQuest(q);
}

// Captured once from a verified run (all formulations agree with the
// serial miner and the serial miner agrees with brute force on sibling
// workloads). If an intentional change alters these, re-capture.
struct Golden {
  std::size_t num_transactions;
  std::size_t total_items;
  std::vector<std::size_t> frequent_per_level;
};

Golden CaptureActual() {
  TransactionDatabase db = GoldenDb();
  AprioriConfig cfg;
  cfg.minsup_fraction = 0.02;
  MiningReport result = MineSerial(db, cfg);
  Golden g;
  g.num_transactions = db.size();
  g.total_items = db.TotalItems();
  for (const auto& level : result.frequent.levels) {
    g.frequent_per_level.push_back(level.size());
  }
  return g;
}

TEST(GoldenTest, WorkloadIsStable) {
  const Golden actual = CaptureActual();
  EXPECT_EQ(actual.num_transactions, 1000u);
  // The generator is deterministic: any change to Prng or the pattern
  // pool construction changes this count.
  EXPECT_EQ(actual.total_items, 7194u);
}

TEST(GoldenTest, SerialFrequentCountsAreStable) {
  const Golden actual = CaptureActual();
  const std::vector<std::size_t> expected = {45, 320, 561, 364, 108, 11};
  EXPECT_EQ(actual.frequent_per_level, expected);
}

TEST(GoldenTest, EveryFormulationReproducesTheGoldenCounts) {
  TransactionDatabase db = GoldenDb();
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  const Golden golden = CaptureActual();
  for (Algorithm alg : {Algorithm::kCD, Algorithm::kDD, Algorithm::kDDComm,
                        Algorithm::kIDD, Algorithm::kHD, Algorithm::kHPA}) {
    MiningRequest request;
    request.algorithm = FromParallelAlgorithm(alg);
    request.num_ranks = 3;
    request.config = cfg;
    MiningSession session;
    MiningReport result = session.Run(request, db);
    std::vector<std::size_t> counts;
    for (const auto& level : result.frequent.levels) {
      counts.push_back(level.size());
    }
    EXPECT_EQ(counts, golden.frequent_per_level) << AlgorithmName(alg);
  }
}

// FNV-1a over a sequence of counters, for pinning work counters compactly.
class CounterDigest {
 public:
  void Fold(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (word >> (i * 8)) & 0xff;
      hash_ *= 1099511628211ull;
    }
  }
  void Fold(const SubsetStats& s) {
    for (std::uint64_t w :
         {s.transactions, s.root_items_considered, s.root_items_skipped,
          s.traversal_steps, s.distinct_leaf_visits,
          s.leaf_candidates_checked}) {
      Fold(w);
    }
  }
  void Fold(const std::vector<std::uint64_t>& words) {
    Fold(words.size());
    for (std::uint64_t w : words) Fold(w);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

// Every PassMetrics field except wall_seconds, for every rank of every
// pass k >= 2 (pass 1 is the shared count-and-reduce of ParallelPass1).
std::uint64_t WorkCounterDigest(const RunMetrics& metrics) {
  CounterDigest d;
  for (const auto& pass : metrics.per_pass) {
    for (const PassMetrics& m : pass) {
      if (m.k < 2) continue;
      d.Fold(static_cast<std::uint64_t>(m.k));
      d.Fold(m.num_candidates_global);
      d.Fold(m.num_candidates_local);
      d.Fold(m.num_frequent_global);
      d.Fold(m.tree_build_inserts);
      d.Fold(m.subset);
      d.Fold(m.transactions_processed);
      d.Fold(m.data_bytes_sent);
      d.Fold(m.data_messages_sent);
      d.Fold(m.reduction_words);
      d.Fold(m.broadcast_words);
      d.Fold(m.db_scans);
      d.Fold(m.local_db_wire_bytes);
      d.Fold(m.comm_faults_injected);
      d.Fold(m.comm_retries);
      d.Fold(m.comm_faults_detected);
      d.Fold(static_cast<std::uint64_t>(m.grid_rows));
      d.Fold(static_cast<std::uint64_t>(m.grid_cols));
      d.Fold(m.partition_digest);
      // Two deleted adaptive-balancer counters were folded here; both read
      // 0 in every default-config run, so 0 is folded in their place and
      // the digests keep their constants.
      d.Fold(std::uint64_t{0});
      d.Fold(std::uint64_t{0});
      d.Fold(static_cast<std::uint64_t>(m.threads_per_rank));
      d.Fold(m.shard_subset_work);
    }
  }
  return d.value();
}

struct GoldenDigest {
  Algorithm algorithm;
  std::uint64_t digest;
};

// Mines the golden workload with `cfg` in every formulation at P = 3 and
// serially, and checks each run's work-counter digest.
void ExpectGoldenWorkCounters(const ParallelConfig& cfg,
                              const std::vector<GoldenDigest>& golden,
                              std::uint64_t serial_digest) {
  TransactionDatabase db = GoldenDb();
  for (const auto& g : golden) {
    const MiningReport result = MineParallel(g.algorithm, db, 3, cfg);
    EXPECT_EQ(WorkCounterDigest(result.metrics), g.digest)
        << AlgorithmName(g.algorithm) << " digest 0x" << std::hex
        << WorkCounterDigest(result.metrics);
  }

  const MiningReport serial = MineSerial(db, cfg.apriori);
  CounterDigest d;
  for (const std::vector<PassMetrics>& row : serial.metrics.per_pass) {
    const PassMetrics& info = row[0];
    d.Fold(static_cast<std::uint64_t>(info.k));
    d.Fold(info.num_candidates_global);
    d.Fold(info.num_frequent_global);
    d.Fold(info.tree_build_inserts);
    d.Fold(info.db_scans);
    d.Fold(info.subset);
    d.Fold(static_cast<std::uint64_t>(info.threads_per_rank));
    d.Fold(info.shard_subset_work);
  }
  EXPECT_EQ(serial.metrics.per_pass.size(), 6u);
  EXPECT_EQ(d.value(), serial_digest)
      << "serial digest 0x" << std::hex << d.value();
}

// The itemset counts above would not notice a change to the work counters
// the cost model and the figure benches read, so these pin them too. A
// refactor must leave them unchanged; a change that alters the work on
// purpose re-captures them. The default config counts pass 2 with the
// triangle and passes 3-6 with the candidate trie.
TEST(GoldenTest, EveryMinerReproducesTheGoldenWorkCounters) {
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  ExpectGoldenWorkCounters(cfg,
                           {
                               {Algorithm::kCD, 0x5c2a94d08b7c2953ull},
                               {Algorithm::kDD, 0x71b2cc8eb52a975full},
                               {Algorithm::kDDComm, 0xb443e33c667fcde7ull},
                               {Algorithm::kIDD, 0xe8835839185901ddull},
                               {Algorithm::kHD, 0xed5f608482474226ull},
                               {Algorithm::kHPA, 0x8594a06588d67276ull},
                           },
                           0xdfafcba3145c3b15ull);
}

// With the specialised kernels off, every pass counts through the paper's
// hash tree (the figures' and the cost model's instrument) at its default
// shape, fanout 64 with 8-candidate leaves; these digests pin its work
// counters. They were captured with that shape pinned while the default
// was still an identity-root tree, so they also show that the hashed path
// did not move when the identity root was deleted. HPA counts through no
// tree, so its digest does not depend on the shape.
TEST(GoldenTest, HashTreeInEveryPassReproducesTheGoldenWorkCounters) {
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  cfg.apriori.use_pass2_triangle = false;
  ExpectGoldenWorkCounters(cfg,
                           {
                               {Algorithm::kCD, 0xd535081725d3335eull},
                               {Algorithm::kDD, 0xfd677b9d3da50eaaull},
                               {Algorithm::kDDComm, 0x24bee7c24635d09bull},
                               {Algorithm::kIDD, 0x4449709d35152a50ull},
                               {Algorithm::kHD, 0xf29102b51487267aull},
                               {Algorithm::kHPA, 0x5543522e01d58311ull},
                           },
                           0x538381a8f87a60d5ull);
}

}  // namespace
}  // namespace pam
