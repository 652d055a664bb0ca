// Market-basket mining on synthetic IBM-Quest-style data (the T..I..
// datasets of the paper's evaluation): generates a database, mines it with
// serial Apriori, prints the per-pass breakdown the paper's analysis
// reasons about (candidates, frequent sets, hash tree size, subset work),
// and shows the strongest rules.
//
//   $ ./market_basket [num_transactions] [minsup_percent]
//   $ ./market_basket 20000 0.5

#include <cstdio>
#include <cstdlib>

#include "pam/core/rulegen.h"
#include "pam/core/serial_apriori.h"
#include "pam/datagen/quest_gen.h"
#include "pam/util/timer.h"

int main(int argc, char** argv) {
  const std::size_t num_transactions =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 10000;
  const double minsup_percent = argc > 2 ? std::atof(argv[2]) : 1.0;

  pam::QuestConfig quest;
  quest.num_transactions = num_transactions;
  quest.num_items = 500;
  quest.avg_transaction_len = 10;
  quest.avg_pattern_len = 4;
  quest.num_patterns = 200;
  quest.seed = 42;

  std::printf("Generating T%.0f.I%.0f data: %zu transactions, %u items...\n",
              quest.avg_transaction_len, quest.avg_pattern_len,
              quest.num_transactions, quest.num_items);
  pam::WallTimer gen_timer;
  pam::TransactionDatabase db = pam::GenerateQuest(quest);
  std::printf("  generated in %.2fs, average length %.2f\n\n",
              gen_timer.Seconds(), db.AverageLength());

  pam::AprioriConfig config;
  config.minsup_fraction = minsup_percent / 100.0;

  pam::SerialResult result = pam::MineSerial(db, config);
  std::printf("Mined at %.2f%% minimum support (count %llu) in %.2fs\n\n",
              minsup_percent,
              static_cast<unsigned long long>(result.minsup_count),
              result.total_seconds);

  std::printf("%4s %12s %12s %14s %14s\n", "pass", "candidates",
              "frequent", "leaf visits", "time (s)");
  for (const pam::SerialPassInfo& pass : result.passes) {
    std::printf("%4d %12zu %12zu %14llu %14.3f\n", pass.k,
                pass.num_candidates, pass.num_frequent,
                static_cast<unsigned long long>(
                    pass.subset.distinct_leaf_visits),
                pass.seconds);
  }
  std::printf("\nTotal frequent itemsets: %zu (largest size %d)\n",
              result.frequent.TotalCount(), result.frequent.MaxK());

  const std::vector<pam::Rule> rules =
      pam::GenerateRules(result.frequent, db.size(), 0.7);
  std::printf("\nTop rules at 70%% confidence (%zu total):\n", rules.size());
  const std::size_t show = rules.size() < 10 ? rules.size() : 10;
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("  %s\n", rules[i].ToString().c_str());
  }
  return 0;
}
