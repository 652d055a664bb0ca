// Figure 14 reproduction: response time as the number of transactions
// grows (1.3M -> 26.1M in the paper) with the candidate count and the
// processor count fixed (M = 0.7M, P = 64, HD pinned to 8x8). Measures
// pass 3 only, like the paper.
//
// Expected shape (paper): CD and HD grow linearly in N and stay close;
// IDD grows faster (its load imbalance and O(N) data movement hurt), so
// its line sits clearly above the other two.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Response time vs number of transactions (pass 3 only)",
                "Figure 14 (N = 1.3M..26.1M, M = 0.7M, P = 64, HD 8x8)");

  const int p = 16;
  const CostModel model(MachineModel::CrayT3E());
  const std::size_t base_n = bench::ScaledN(4000);

  std::printf("P = %d, minsup fixed so |C_3| stays comparable\n\n", p);
  std::printf("%10s %12s %12s %12s %12s\n", "N", "|C_3|", "CD", "IDD", "HD");

  for (int mult : {1, 2, 4, 8}) {
    const std::size_t n = base_n * static_cast<std::size_t>(mult);
    TransactionDatabase db = GenerateQuest(bench::ScaleupWorkload(n));
    ParallelConfig cfg;
    // Fixed relative support keeps |C_3| near-constant as N grows, the
    // way the paper holds M = 0.7M across its N sweep.
    cfg.apriori.minsup_fraction = 0.02;
    cfg.apriori.max_k = 3;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
    cfg.hd_forced_rows = 4;  // fixed grid, the paper's 8x8 analogue

    std::size_t m3 = 0;
    double t[3] = {0, 0, 0};
    const Algorithm algs[] = {Algorithm::kCD, Algorithm::kIDD,
                              Algorithm::kHD};
    for (int a = 0; a < 3; ++a) {
      MiningReport result = bench::Mine(algs[a], db, p, cfg);
      for (int pass = 0; pass < result.metrics.num_passes(); ++pass) {
        const auto& row =
            result.metrics.per_pass[static_cast<std::size_t>(pass)];
        if (row[0].k == 3) {
          t[a] = model.PassTime(algs[a], row).Total();
          m3 = row[0].num_candidates_global;
        }
      }
    }
    std::printf("%10zu %12zu %12.3f %12.3f %12.3f\n", n, m3, t[0], t[1],
                t[2]);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: CD and HD scale linearly with N and overlap; IDD "
      "sits above them.\n");
  return 0;
}
