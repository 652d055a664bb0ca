// Reproduces the overhead percentages the paper quotes alongside
// Figure 13: on CD, hash tree construction and the global reduction grow
// from 3.1% / 1.6% of the runtime at P=4 to 24.8% / 31.0% at P=64; on
// IDD, load imbalance grows from 6.3% to 49.6% and data movement from
// 1.0% to 6.4%. This harness prints the same decomposition from the cost
// model and the measured per-rank counters.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Where the time goes: per-component share vs P",
                "Section V's Figure-13 discussion (CD: build/reduction "
                "bottleneck; IDD: load imbalance)");

  const std::size_t n = bench::ScaledN(16000);
  TransactionDatabase db = GenerateQuest(bench::ScaleupWorkload(n));
  const CostModel model(MachineModel::CrayT3E());

  std::printf("N = %zu, 2%% minimum support, pass 3 only\n\n", db.size());
  std::printf("%6s | %28s | %28s\n", "",
              "CD (% of pass time)", "IDD (% of pass time)");
  std::printf("%6s | %8s %9s %9s | %8s %9s %9s\n", "P", "build", "reduce",
              "subset", "moveData", "imbal", "subset");

  for (int p : {4, 8, 16, 32, 64}) {
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = 0.02;
    cfg.apriori.max_k = 3;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree

    double cd_parts[3] = {0, 0, 0};
    double idd_parts[3] = {0, 0, 0};
    for (int a = 0; a < 2; ++a) {
      const Algorithm alg = a == 0 ? Algorithm::kCD : Algorithm::kIDD;
      MiningReport result = bench::Mine(alg, db, p, cfg);
      for (int pass = 0; pass < result.metrics.num_passes(); ++pass) {
        const auto& row =
            result.metrics.per_pass[static_cast<std::size_t>(pass)];
        if (row[0].k != 3) continue;
        const PassTimeBreakdown b = model.PassTime(alg, row);
        const double total = b.Total();
        if (a == 0) {
          cd_parts[0] = 100.0 * b.tree_build / total;
          cd_parts[1] = 100.0 * b.reduction / total;
          cd_parts[2] = 100.0 * b.subset / total;
        } else {
          idd_parts[0] = 100.0 * b.data_comm / total;
          // Imbalance share: the slack between the slowest rank's subset
          // time (which paces the pass) and the average rank's.
          double sum = 0.0;
          double max = 0.0;
          for (const PassMetrics& m : row) {
            const double s = model.SubsetSeconds(m.subset);
            sum += s;
            max = std::max(max, s);
          }
          const double avg = sum / static_cast<double>(row.size());
          idd_parts[1] = 100.0 * (max - avg) / total;
          idd_parts[2] = 100.0 * b.subset / total;
        }
      }
    }
    std::printf("%6d | %7.1f%% %8.1f%% %8.1f%% | %7.1f%% %8.1f%% %8.1f%%\n",
                p, cd_parts[0], cd_parts[1], cd_parts[2], idd_parts[0],
                idd_parts[1], idd_parts[2]);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: CD's build+reduce share grows with P (its serial "
      "bottleneck);\nIDD's imbalance share grows with P and dominates its "
      "data-movement share.\n");
  return 0;
}
