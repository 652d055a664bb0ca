#ifndef PAM_TESTS_TESTING_TEST_SUPPORT_H_
#define PAM_TESTS_TESTING_TEST_SUPPORT_H_

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/api/session.h"
#include "pam/core/serial_apriori.h"
#include "pam/datagen/quest_gen.h"
#include "pam/parallel/driver.h"
#include "pam/tdb/database.h"
#include "testing/random_db.h"

namespace pam::testing {

/// Flattens the per-level frequent-itemset representation into one ordered
/// map so two mining results can be compared with a single EXPECT_EQ and a
/// mismatch prints the offending itemsets.
inline std::map<std::vector<Item>, Count> Flatten(const FrequentItemsets& fi) {
  std::map<std::vector<Item>, Count> out;
  for (const auto& level : fi.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      ItemSpan s = level.Get(i);
      out[std::vector<Item>(s.begin(), s.end())] = level.count(i);
    }
  }
  return out;
}

/// The standard small Quest workload used by the equivalence tests:
/// 600 transactions over 80 items, deep enough that every parallel
/// formulation runs at least three passes at minsup 2%.
inline QuestConfig SmallQuestConfig() {
  QuestConfig q;
  q.num_transactions = 600;
  q.num_items = 80;
  q.avg_transaction_len = 8;
  q.avg_pattern_len = 3;
  q.num_patterns = 40;
  q.seed = 7;
  return q;
}

inline TransactionDatabase SmallQuestDb() {
  return GenerateQuest(SmallQuestConfig());
}

/// The small Quest workload re-seeded, so sweep-style tests can vary the
/// candidate population per seed while keeping the shape that guarantees
/// three-plus passes at minsup 2%.
inline TransactionDatabase SeededQuestDb(std::uint64_t seed) {
  QuestConfig q = SmallQuestConfig();
  q.seed = seed;
  return GenerateQuest(q);
}

/// A smaller Quest workload for the chaos matrix, where each cell pays the
/// fault-injection overhead (retransmits, deadline scans) on every message:
/// 200 transactions over 40 items still produces 3+ passes at minsup 3%.
inline TransactionDatabase TinyQuestDb() {
  QuestConfig q;
  q.num_transactions = 200;
  q.num_items = 40;
  q.avg_transaction_len = 8;
  q.avg_pattern_len = 3;
  q.num_patterns = 20;
  q.seed = 13;
  return GenerateQuest(q);
}

/// Serial Apriori reference run, flattened for comparison.
inline std::map<std::vector<Item>, Count> SerialReference(
    const TransactionDatabase& db, const AprioriConfig& cfg) {
  return Flatten(MineSerial(db, cfg).frequent);
}

/// Asserts a mining result matches the serial reference byte-for-byte
/// (same itemsets, same counts). `label` names the configuration under
/// test in failure output.
inline void ExpectMatchesSerial(
    const MiningReport& mined,
    const std::map<std::vector<Item>, Count>& serial_flat,
    const std::string& label) {
  EXPECT_EQ(Flatten(mined.frequent), serial_flat) << label;
}

/// Runs one parallel formulation through the public MiningSession facade
/// with no observers attached — the integration tests exercise the same
/// entry point the tools and benches use.
inline MiningReport SessionMine(Algorithm algorithm,
                                const TransactionDatabase& db, int num_ranks,
                                const ParallelConfig& config) {
  MiningRequest request;
  request.algorithm = FromParallelAlgorithm(algorithm);
  request.num_ranks = num_ranks;
  request.config = config;
  MiningSession session;
  return session.Run(request, db);
}

}  // namespace pam::testing

#endif  // PAM_TESTS_TESTING_TEST_SUPPORT_H_
