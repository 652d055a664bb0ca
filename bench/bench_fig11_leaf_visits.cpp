// Figure 11 reproduction: the average number of DISTINCT leaf nodes
// visited per transaction for DD vs IDD as the processor count grows
// (50K tx/proc, 0.2% minsup in the paper). This is a direct measurement of
// the paper's V quantities — no machine model involved: the hash tree
// instruments every Subset() call.
//
// Expected shape (paper): IDD's per-rank visits fall like V_{C/P, L/P}
// (roughly 1/P), while DD's V_{C, L/P} barely falls — the redundant-work
// gap that motivates intelligent partitioning.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Average distinct leaf nodes visited per transaction",
                "Figure 11 (DD vs IDD, 50K tx/proc, 0.2% minsup)");

  const std::size_t tx_per_rank = bench::ScaledN(300);
  std::printf("%zu transactions per processor, 0.5%% minimum support\n\n",
              tx_per_rank);
  std::printf("%6s %14s %14s %14s %18s\n", "P", "DD", "IDD", "serial(P=1)",
              "DD/IDD ratio");

  for (int p : {1, 2, 4, 8, 16, 32}) {
    TransactionDatabase db = GenerateQuest(bench::PaperWorkload(
        tx_per_rank * static_cast<std::size_t>(p)));
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = 0.005;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
    // The paper's hashed tree at fanout 8 with 16-candidate leaves, the
    // shape this figure has always been recorded with (not the 64/8
    // default the other figures use).
    cfg.apriori.tree.fanout = 8;
    cfg.apriori.tree.leaf_capacity = 16;

    MiningReport dd = bench::Mine(Algorithm::kDD, db, p, cfg);
    MiningReport idd = bench::Mine(Algorithm::kIDD, db, p, cfg);
    MiningReport serial = bench::Mine(Algorithm::kCD, db, 1, cfg);

    // Figure 11 plots the per-rank per-transaction average over the
    // candidate-heaviest pass.
    int heavy_pass = 1;
    std::size_t heavy_m = 0;
    for (int pass = 1; pass < dd.metrics.num_passes(); ++pass) {
      const std::size_t m = dd.metrics
                                .per_pass[static_cast<std::size_t>(pass)][0]
                                .num_candidates_global;
      if (m > heavy_m) {
        heavy_m = m;
        heavy_pass = pass;
      }
    }
    auto avg_visits = [heavy_pass](const MiningReport& r) {
      if (heavy_pass >= r.metrics.num_passes()) return 0.0;
      return r.metrics.PassSubsetStats(heavy_pass)
          .AvgLeafVisitsPerTransaction();
    };
    const double dd_avg = avg_visits(dd);
    const double idd_avg = avg_visits(idd);
    std::printf("%6d %14.2f %14.2f %14.2f %18.2f\n", p, dd_avg, idd_avg,
                avg_visits(serial), idd_avg > 0 ? dd_avg / idd_avg : 0.0);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: IDD's visits drop ~1/P; DD's stay near the serial "
      "level (ratio grows with P).\n");
  return 0;
}
