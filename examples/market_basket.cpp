// Market-basket mining on synthetic IBM-Quest-style data (the T..I..
// datasets of the paper's evaluation): generates a database, mines it and
// its rules with serial Apriori through the MiningSession API, prints the
// per-pass breakdown the paper's analysis reasons about (candidates,
// frequent sets, subset work), and shows the strongest rules.
//
//   $ ./market_basket [num_transactions] [minsup_percent]
//   $ ./market_basket 20000 0.5

#include <cstdio>
#include <cstdlib>

#include "pam/api/session.h"
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

  pam::MiningRequest request;  // serial Apriori by default
  request.config.apriori.minsup_fraction = minsup_percent / 100.0;
  request.generate_rules = true;
  request.min_confidence = 0.7;

  pam::MiningSession session;
  const pam::MiningReport report = session.Run(request, db);
  std::printf("Mined at %.2f%% minimum support (count %llu) in %.2fs\n\n",
              minsup_percent,
              static_cast<unsigned long long>(report.minsup_count),
              report.wall_seconds);

  // A serial run reports one rank, so each pass is a one-element row.
  std::printf("%4s %12s %12s %14s %14s\n", "pass", "candidates",
              "frequent", "leaf visits", "time (s)");
  for (const std::vector<pam::PassMetrics>& row : report.metrics.per_pass) {
    const pam::PassMetrics& pass = row[0];
    std::printf("%4d %12zu %12zu %14llu %14.3f\n", pass.k,
                pass.num_candidates_global, pass.num_frequent_global,
                static_cast<unsigned long long>(
                    pass.subset.distinct_leaf_visits),
                pass.wall_seconds);
  }
  std::printf("\nTotal frequent itemsets: %zu (largest size %d)\n",
              report.frequent.TotalCount(), report.frequent.MaxK());

  const std::vector<pam::Rule>& rules = report.rules;
  std::printf("\nTop rules at 70%% confidence (%zu total):\n", rules.size());
  const std::size_t show = rules.size() < 10 ? rules.size() : 10;
  for (std::size_t i = 0; i < show; ++i) {
    std::printf("  %s\n", rules[i].ToString().c_str());
  }
  return 0;
}
