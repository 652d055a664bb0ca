// Figure 10 reproduction: scaleup on the Cray T3E. Transactions per
// processor and minimum support stay fixed while the processor count
// grows; a scalable formulation keeps a flat response-time curve. The
// paper runs 50K transactions/processor at 0.1% support on up to 128
// processors; this harness runs the same sweep shape at reduced size and
// reports the modeled T3E response time from the exactly measured work
// counts (see DESIGN.md's substitution table).
//
// Expected shape (paper): DD climbs steeply (redundant work + contention),
// DD+comm recovers part of the gap (better communication), IDD more
// (intelligent partitioning), CD and HD stay nearly flat, with HD below CD
// at large P (16.5% at P = 128 in the paper).

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Scaleup: response time vs processors",
                "Figure 10 (50K tx/proc, 0.1% minsup, T3E; curves CD, DD, "
                "DD+comm, IDD, HD)");

  const std::size_t tx_per_rank = bench::ScaledN(400);
  const CostModel model(MachineModel::CrayT3E());
  const Algorithm algorithms[] = {Algorithm::kCD, Algorithm::kDD,
                                  Algorithm::kDDComm, Algorithm::kIDD,
                                  Algorithm::kHD};

  std::printf("%zu transactions per processor, 2%% minimum support\n\n",
              tx_per_rank);
  std::printf("%6s %12s %12s %12s %12s %12s\n", "P", "CD", "DD", "DD+comm",
              "IDD", "HD");

  for (int p : {2, 4, 8, 16, 32, 64}) {
    TransactionDatabase db = GenerateQuest(bench::ScaleupWorkload(
        tx_per_rank * static_cast<std::size_t>(p)));
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = 0.02;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
    cfg.hd_threshold_m = 2000;  // scaled analogue of the paper's threshold

    std::printf("%6d", p);
    for (Algorithm alg : algorithms) {
      MiningReport result = bench::Mine(alg, db, p, cfg);
      std::printf(" %12.3f", model.RunTime(alg, result.metrics));
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: DD >> DD+comm > IDD; CD and HD flat, HD <= CD at "
      "large P.\n");
  return 0;
}
