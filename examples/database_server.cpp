// The paper's conclusion scenario (Section VI): "when all the data is
// coming from a database server or a single file system, one processor
// can read data from the single source and pass the data along the
// communication pipeline defined in the algorithm."
//
// This example stages the whole database on rank 0 (the "server"), mines
// frequent itemsets and association rules with single-source IDD (rank 0
// feeds the Figure-6 ring; no other rank ever touches the source), and
// checks both against a serial run of the same request. Exits 1 if they
// differ.
//
//   $ ./database_server [num_ranks] [num_transactions]

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "pam/api/session.h"
#include "pam/datagen/quest_gen.h"

namespace {

bool SameItemsets(const pam::FrequentItemsets& a,
                  const pam::FrequentItemsets& b) {
  if (a.levels.size() != b.levels.size()) return false;
  for (std::size_t i = 0; i < a.levels.size(); ++i) {
    if (a.levels[i].Serialize() != b.levels[i].Serialize()) return false;
  }
  return true;
}

bool SameRules(const std::vector<pam::Rule>& a,
               const std::vector<pam::Rule>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].antecedent != b[i].antecedent ||
        a[i].consequent != b[i].consequent ||
        a[i].joint_count != b[i].joint_count ||
        a[i].support != b[i].support ||
        a[i].confidence != b[i].confidence) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_ranks = argc > 1 ? std::atoi(argv[1]) : 6;
  const std::size_t num_transactions =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 5000;

  pam::QuestConfig quest;
  quest.num_transactions = num_transactions;
  quest.num_items = 250;
  quest.avg_transaction_len = 9;
  quest.avg_pattern_len = 4;
  quest.num_patterns = 120;
  quest.seed = 23;
  pam::TransactionDatabase db = pam::GenerateQuest(quest);
  std::printf("database server holds %zu transactions (%.2f avg items)\n",
              db.size(), db.AverageLength());

  // Single-source IDD: only rank 0 reads the database. The session also
  // derives the association rules from the mined itemsets.
  pam::MiningRequest request;
  request.algorithm = pam::MiningAlgorithm::kIDD;
  request.num_ranks = num_ranks;
  request.config.apriori.minsup_fraction = 0.008;
  request.config.single_source = true;
  request.generate_rules = true;
  request.min_confidence = 0.75;
  pam::MiningSession session;
  const pam::MiningReport mined = session.Run(request, db);
  std::printf("single-source IDD on %d ranks: %zu frequent itemsets "
              "(largest size %d)\n",
              num_ranks, mined.frequent.TotalCount(),
              mined.frequent.MaxK());

  std::uint64_t ring_bytes = 0;
  for (int pass = 0; pass < mined.metrics.num_passes(); ++pass) {
    ring_bytes += mined.metrics.TotalDataBytes(pass);
  }
  std::printf("ring pipeline moved %.2f MB in total\n",
              static_cast<double>(ring_bytes) / 1048576.0);
  std::printf("%zu rules at %.0f%% confidence\n", mined.rules.size(),
              request.min_confidence * 100.0);
  for (std::size_t i = 0; i < mined.rules.size() && i < 5; ++i) {
    std::printf("  %s\n", mined.rules[i].ToString().c_str());
  }

  // Verify against the same request mined serially.
  pam::MiningRequest serial_request = request;
  serial_request.algorithm = pam::MiningAlgorithm::kSerial;
  const pam::MiningReport serial = session.Run(serial_request, db);
  const bool same = SameItemsets(serial.frequent, mined.frequent) &&
                    SameRules(serial.rules, mined.rules);
  std::printf("serial cross-check: %s (%zu itemsets, %zu rules)\n",
              same ? "MATCH" : "MISMATCH", serial.frequent.TotalCount(),
              serial.rules.size());
  return same ? 0 : 1;
}
