// Runs all five parallel formulations (CD, DD, DD+comm, IDD, HD) over the
// same synthetic workload, verifies they find identical frequent itemsets,
// and contrasts their exact work/traffic profiles plus the modeled
// response time on the paper's Cray T3E. Every run goes through the
// MiningSession API.
//
//   $ ./parallel_mining [num_ranks] [num_transactions]
//   $ ./parallel_mining 8 20000

#include <cstdio>
#include <cstdlib>
#include <map>
#include <vector>

#include "pam/api/session.h"
#include "pam/datagen/quest_gen.h"
#include "pam/model/cost_model.h"

namespace {

std::map<std::vector<pam::Item>, pam::Count> Flatten(
    const pam::FrequentItemsets& fi) {
  std::map<std::vector<pam::Item>, pam::Count> out;
  for (const auto& level : fi.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      pam::ItemSpan s = level.Get(i);
      out[std::vector<pam::Item>(s.begin(), s.end())] = level.count(i);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int num_ranks = argc > 1 ? std::atoi(argv[1]) : 8;
  const std::size_t num_transactions =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 8000;

  pam::QuestConfig quest;
  quest.num_transactions = num_transactions;
  quest.num_items = 300;
  quest.avg_transaction_len = 10;
  quest.avg_pattern_len = 4;
  quest.num_patterns = 150;
  quest.seed = 11;
  pam::TransactionDatabase db = pam::GenerateQuest(quest);

  pam::ParallelConfig config;
  config.apriori.minsup_fraction = 0.005;
  config.hd_threshold_m = 500;

  const pam::CostModel model(pam::MachineModel::CrayT3E());
  const pam::Algorithm algorithms[] = {
      pam::Algorithm::kCD,  pam::Algorithm::kDD, pam::Algorithm::kDDComm,
      pam::Algorithm::kIDD, pam::Algorithm::kHD, pam::Algorithm::kHPA};

  std::printf(
      "Mining %zu transactions on %d logical processors "
      "(0.5%% minimum support)\n\n",
      db.size(), num_ranks);
  std::printf("%-8s %10s %14s %14s %14s %12s %14s\n", "algo", "frequent",
              "leaf visits", "data MB", "reduce words", "imbalance",
              "T3E model (s)");

  pam::MiningSession session;
  pam::MiningRequest request;
  request.num_ranks = num_ranks;
  request.config = config;
  std::map<std::vector<pam::Item>, pam::Count> reference;
  for (pam::Algorithm alg : algorithms) {
    request.algorithm = pam::FromParallelAlgorithm(alg);
    const pam::MiningReport result = session.Run(request, db);

    if (reference.empty()) {
      reference = Flatten(result.frequent);
    } else if (Flatten(result.frequent) != reference) {
      std::printf("ERROR: %s diverged from CD's frequent itemsets!\n",
                  pam::AlgorithmName(alg).c_str());
      return 1;
    }

    std::uint64_t leaf_visits = 0;
    std::uint64_t data_bytes = 0;
    std::uint64_t reduce_words = 0;
    double heaviest_work = -1.0;
    double heaviest_imbalance = 1.0;  // imbalance of the heaviest pass
    for (int pass = 0; pass < result.metrics.num_passes(); ++pass) {
      leaf_visits += result.metrics.TotalLeafVisits(pass);
      data_bytes += result.metrics.TotalDataBytes(pass);
      for (const pam::PassMetrics& m :
           result.metrics.per_pass[static_cast<std::size_t>(pass)]) {
        reduce_words += m.reduction_words;
      }
      const pam::LoadSummary balance =
          result.metrics.SubsetWorkBalance(pass);
      if (balance.total > heaviest_work) {
        heaviest_work = balance.total;
        heaviest_imbalance = balance.imbalance;
      }
    }
    std::printf("%-8s %10zu %14llu %14.2f %14llu %11.1f%% %14.3f\n",
                pam::AlgorithmName(alg).c_str(),
                result.frequent.TotalCount(),
                static_cast<unsigned long long>(leaf_visits),
                static_cast<double>(data_bytes) / (1024.0 * 1024.0),
                static_cast<unsigned long long>(reduce_words),
                (heaviest_imbalance - 1.0) * 100.0,
                model.RunTime(alg, result.metrics));
  }
  std::printf(
      "\nAll six formulations produced identical frequent itemsets.\n");
  return 0;
}
