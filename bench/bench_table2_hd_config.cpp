// Table II reproduction: the processor grid HD chooses at every pass, as
// the candidate count rises and falls, with P processors and candidate
// threshold m. The paper runs P = 64, m = 50K on T15.I6 data at 0.1%
// support; this harness runs a proportionally scaled workload and prints
// the same rows: pass, grid configuration, candidate count. The expected
// pattern is the paper's: the grid widens (more rows G) in the heavy
// middle passes and collapses to 1 x P (pure CD) in the tail.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("HD dynamic processor grid per pass",
                "Table II (64 procs, m = 50K, configs 8x8 -> 64x1 -> ... -> "
                "1x64)");

  const int p = 16;
  TransactionDatabase db =
      GenerateQuest(bench::PaperWorkload(bench::ScaledN(16000)));

  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.004;
  // Scale the paper's m = 50K to this workload's candidate magnitudes.
  cfg.hd_threshold_m = 1500;
  // Grid pass 2 through the tree, as the paper does: a triangle pass is
  // CD's 1 x P pass in every formulation.
  cfg.apriori.use_pass2_triangle = false;

  std::printf("P = %d, m = %zu, N = %zu, minsup = %.2f%%\n\n", p,
              cfg.hd_threshold_m, db.size(),
              cfg.apriori.minsup_fraction * 100.0);

  MiningReport result = bench::Mine(Algorithm::kHD, db, p, cfg);

  std::printf("%6s %16s %14s %12s %14s\n", "pass", "configuration",
              "candidates", "frequent", "equivalent");
  for (const auto& pass : result.metrics.per_pass) {
    const PassMetrics& m = pass[0];
    const char* equivalent = "hybrid";
    if (m.grid_rows == 1) equivalent = "CD";
    if (m.grid_cols == 1) equivalent = "IDD";
    if (m.k == 1) equivalent = "count+reduce";
    std::printf("%6d %10dx%-5d %14zu %12zu %14s\n", m.k, m.grid_rows,
                m.grid_cols, m.num_candidates_global, m.num_frequent_global,
                equivalent);
  }
  std::printf("\nTotal frequent itemsets: %zu\n",
              result.frequent.TotalCount());
  return 0;
}
