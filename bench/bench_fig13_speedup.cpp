// Figure 13 reproduction: speedup vs processor count with the TOTAL
// problem fixed (N = 1.3M transactions, M = 0.7M candidates in the paper;
// P from 4 to 64). The paper measures the pass computing size-3 frequent
// itemsets only, since it dominates (> 55%) the runtime; this harness does
// the same (max_k = 3, pass-3 modeled time) at reduced scale.
//
// Expected shape (paper): HD speeds up best; CD flattens because hash tree
// construction and the global reduction are serial bottlenecks (3.1% of
// runtime at P=4 growing to 24.8% + 31.0% at P=64); IDD flattens from load
// imbalance. HD grids are pinned to 8 rows (8x2, 8x4, 8x8) as in the
// paper.

#include <cstdio>
#include <cstdlib>

#include "bench_util.h"
#include "pam/core/serial_apriori.h"

int main() {
  using namespace pam;
  bench::Banner("Speedup vs processors, fixed N and M (pass 3 only)",
                "Figure 13 (N = 1.3M, M = 0.7M, P = 4..64, HD grids 8x2 / "
                "8x4 / 8x8)");

  const std::size_t n = bench::ScaledN(20000);
  TransactionDatabase db = GenerateQuest(bench::ScaleupWorkload(n));

  ParallelConfig base;
  base.apriori.minsup_fraction = 0.02;
  base.apriori.max_k = 3;
  base.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
  // PAM_THREADS_PER_RANK=T adds the intra-rank counting team (wall-clock
  // only; the T3E cost model charges the single-threaded work terms).
  if (const char* env = std::getenv("PAM_THREADS_PER_RANK")) {
    const int t = std::atoi(env);
    if (t > 0) base.apriori.threads_per_rank = t;
  }

  const CostModel model(MachineModel::CrayT3E());

  // Serial baseline (pass 3 modeled time).
  AprioriConfig serial_cfg = base.apriori;
  MiningReport serial = MineSerial(db, serial_cfg);
  double serial_pass3 = 0.0;
  std::size_t m3 = 0;
  for (const std::vector<PassMetrics>& row : serial.metrics.per_pass) {
    if (row[0].k == 3) {
      serial_pass3 = model.PassTime(Algorithm::kCD, row).Total();
      m3 = row[0].num_candidates_global;
    }
  }
  std::printf("N = %zu, |C_3| = %zu, serial pass-3 model time = %.3fs\n\n",
              db.size(), m3, serial_pass3);
  if (serial_pass3 <= 0.0) {
    std::printf("workload produced no pass 3; raise PAM_BENCH_SCALE\n");
    return 1;
  }

  std::printf("%6s %10s %10s %10s %16s\n", "P", "CD", "IDD", "HD",
              "(HD grid)");
  for (int p : {4, 8, 16, 32, 64}) {
    ParallelConfig cfg = base;
    cfg.hd_forced_rows = p <= 8 ? p / 2 : 8;  // 2x2, 4x2, 8x2, 8x4, 8x8

    double t[3] = {0, 0, 0};
    int grid_rows = 0;
    int grid_cols = 0;
    const Algorithm algs[] = {Algorithm::kCD, Algorithm::kIDD,
                              Algorithm::kHD};
    for (int a = 0; a < 3; ++a) {
      MiningReport result = bench::Mine(algs[a], db, p, cfg);
      for (int pass = 0; pass < result.metrics.num_passes(); ++pass) {
        const auto& row =
            result.metrics.per_pass[static_cast<std::size_t>(pass)];
        if (row[0].k == 3) {
          t[a] = model.PassTime(algs[a], row).Total();
          if (algs[a] == Algorithm::kHD) {
            grid_rows = row[0].grid_rows;
            grid_cols = row[0].grid_cols;
          }
        }
      }
    }
    std::printf("%6d %10.2f %10.2f %10.2f %12dx%-3d\n", p,
                serial_pass3 / t[0], serial_pass3 / t[1],
                serial_pass3 / t[2], grid_rows, grid_cols);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: HD's speedup keeps climbing; CD and IDD flatten at "
      "large P.\n");
  return 0;
}
