// Figure 15 reproduction: response time as the candidate count grows
// (0.7M -> 8M in the paper) with N and P fixed (N = 1.3M, P = 64). The
// paper grows M by lowering the minimum support and lets HD's grid adapt
// (8x8 -> 16x4 -> 32x2 -> 64x1); CD partitions its hash tree once M
// exceeds one node's memory.
//
// Expected shape (paper): CD's O(M) hash-tree construction makes it grow
// fastest; IDD starts worse than CD (data movement) but overtakes it as M
// grows; HD tracks the better of the two and matches IDD exactly once the
// grid reaches G = P.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Response time vs number of candidates (pass 3 only)",
                "Figure 15 (M = 0.7M..8M, N = 1.3M, P = 64; HD grid adapts "
                "to 64x1)");

  const int p = 16;
  const std::size_t n = bench::ScaledN(16000);
  TransactionDatabase db = GenerateQuest(bench::ScaleupWorkload(n));

  // Memory-capped CD, as in the paper (tree partitioned beyond 0.7M).
  MachineModel t3e = MachineModel::CrayT3E();
  const std::size_t capacity = 16000;
  const CostModel model(t3e);

  std::printf("P = %d, N = %zu, CD per-node capacity = %zu candidates\n\n",
              p, db.size(), capacity);
  std::printf("%10s %12s %12s %12s %12s %14s\n", "minsup%", "|C_3|", "CD",
              "IDD", "HD", "(HD grid)");

  for (double minsup : {0.02, 0.015, 0.01, 0.0075, 0.005, 0.0035}) {
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = minsup;
    cfg.apriori.max_k = 3;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
    cfg.hd_threshold_m = capacity;  // grid adapts with M, as in the paper

    ParallelConfig cd_cfg = cfg;
    cd_cfg.apriori.max_candidates_in_memory = capacity;

    std::size_t m3 = 0;
    double t[3] = {0, 0, 0};
    int rows = 0;
    int cols = 0;
    const Algorithm algs[] = {Algorithm::kCD, Algorithm::kIDD,
                              Algorithm::kHD};
    for (int a = 0; a < 3; ++a) {
      const ParallelConfig& use = algs[a] == Algorithm::kCD ? cd_cfg : cfg;
      MiningReport result = bench::Mine(algs[a], db, p, use);
      for (int pass = 0; pass < result.metrics.num_passes(); ++pass) {
        const auto& row =
            result.metrics.per_pass[static_cast<std::size_t>(pass)];
        if (row[0].k == 3) {
          t[a] = model.PassTime(algs[a], row).Total();
          m3 = row[0].num_candidates_global;
          if (algs[a] == Algorithm::kHD) {
            rows = row[0].grid_rows;
            cols = row[0].grid_cols;
          }
        }
      }
    }
    std::printf("%10.4f %12zu %12.3f %12.3f %12.3f %10dx%-3d\n",
                minsup * 100.0, m3, t[0], t[1], t[2], rows, cols);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: CD grows fastest in M; IDD overtakes CD; HD tracks "
      "the winner and equals IDD at G = P.\n");
  return 0;
}
