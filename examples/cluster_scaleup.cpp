// A miniature of the paper's Figure 10 scaleup experiment: keep the
// transactions-per-processor constant, sweep the processor count, and
// report the modeled Cray T3E response time of each formulation. DD's
// curve climbs steeply, DD+comm and IDD grow moderately, CD and HD stay
// nearly flat with HD edging out CD at scale — the paper's headline plot.
// Every run goes through the MiningSession API.
//
//   $ ./cluster_scaleup [tx_per_rank]
//   $ ./cluster_scaleup 2000

#include <cstdio>
#include <cstdlib>

#include "pam/api/session.h"
#include "pam/datagen/quest_gen.h"
#include "pam/model/cost_model.h"

int main(int argc, char** argv) {
  const std::size_t tx_per_rank =
      argc > 1 ? static_cast<std::size_t>(std::atoll(argv[1])) : 1000;

  const pam::CostModel model(pam::MachineModel::CrayT3E());
  const pam::Algorithm algorithms[] = {
      pam::Algorithm::kCD, pam::Algorithm::kDD, pam::Algorithm::kDDComm,
      pam::Algorithm::kIDD, pam::Algorithm::kHD};

  std::printf("Scaleup with %zu transactions per processor (modeled T3E "
              "seconds per run)\n\n",
              tx_per_rank);
  std::printf("%6s %10s %10s %10s %10s %10s\n", "P", "CD", "DD", "DD+comm",
              "IDD", "HD");

  pam::MiningSession session;
  for (int p : {2, 4, 8, 16}) {
    // A concentrated pattern pool keeps the candidate count small
    // relative to N at example scale — the regime of the paper's scaleup
    // runs (see EXPERIMENTS.md on Figure 10).
    pam::QuestConfig quest;
    quest.num_transactions = tx_per_rank * static_cast<std::size_t>(p);
    quest.num_items = 1000;
    quest.avg_transaction_len = 15;
    quest.avg_pattern_len = 6;
    quest.num_patterns = 40;
    quest.seed = 3;
    pam::TransactionDatabase db = pam::GenerateQuest(quest);

    pam::MiningRequest request;
    request.num_ranks = p;
    request.config.apriori.minsup_fraction = 0.02;
    request.config.apriori.tree = pam::HashTreeConfig::TunedFor(8000, 2, 8);
    request.config.hd_threshold_m = 2000;

    std::printf("%6d", p);
    for (pam::Algorithm alg : algorithms) {
      request.algorithm = pam::FromParallelAlgorithm(alg);
      const pam::MiningReport result = session.Run(request, db);
      std::printf(" %10.3f", model.RunTime(alg, result.metrics));
    }
    std::printf("\n");
  }
  std::printf("\nCD/HD flat = linear scaleup; DD's growth is the "
              "redundant work + contention the paper eliminates.\n");
  return 0;
}
