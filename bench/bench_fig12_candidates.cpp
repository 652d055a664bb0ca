// Figure 12 reproduction: response time on a 16-processor IBM SP2 with a
// DISK-resident database as the candidate count grows (the paper lowers
// minsup from 0.1% to 0.025%, reaching 11M candidates). When the candidate
// hash tree no longer fits in one node's memory, CD must partition the
// tree and re-scan the database once per partition; IDD and HD keep using
// the aggregate memory of all nodes and scan once.
//
// Expected shape (paper): all three grow with M, but CD grows faster and
// is overtaken by IDD and HD once the tree overflows (the paper reports
// 8% / 11% / 25% CD overhead at 1M / 3M / 11M candidates).

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Response time vs number of candidates (disk-resident DB)",
                "Figure 12 (16-proc IBM SP2, 100K tx, minsup 0.1% -> "
                "0.025%)");

  const int p = 16;
  const std::size_t n = bench::ScaledN(12000);
  TransactionDatabase db = GenerateQuest(bench::PaperWorkload(n));

  const MachineModel sp2 = MachineModel::IbmSp2();
  // Scale the per-node memory capacity with the workload: the paper's SP2
  // nodes hold ~0.7M of its candidates; our scaled runs overflow at the
  // same relative point of the sweep.
  MachineModel scaled_sp2 = sp2;
  scaled_sp2.memory_capacity_candidates = 130000;
  const CostModel model(scaled_sp2);

  std::printf("P = %d, N = %zu, per-node capacity = %zu candidates\n\n", p,
              db.size(), scaled_sp2.memory_capacity_candidates);
  std::printf("%10s %14s %10s %12s %12s %12s\n", "minsup%", "candidates",
              "CD scans", "CD", "IDD", "HD");

  for (double minsup : {0.01, 0.0075, 0.005, 0.0035, 0.0025}) {
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = minsup;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
    cfg.hd_threshold_m = scaled_sp2.memory_capacity_candidates;

    // CD is memory-capped: hash tree partitioned, DB re-scanned per chunk.
    ParallelConfig cd_cfg = cfg;
    cd_cfg.apriori.max_candidates_in_memory =
        scaled_sp2.memory_capacity_candidates;

    MiningReport cd = bench::Mine(Algorithm::kCD, db, p, cd_cfg);
    MiningReport idd = bench::Mine(Algorithm::kIDD, db, p, cfg);
    MiningReport hd = bench::Mine(Algorithm::kHD, db, p, cfg);

    std::size_t max_m = 0;
    std::size_t max_scans = 0;
    for (const auto& pass : cd.metrics.per_pass) {
      max_m = std::max(max_m, pass[0].num_candidates_global);
      max_scans = std::max(max_scans, pass[0].db_scans);
    }
    std::printf("%10.4f %14zu %10zu %12.2f %12.2f %12.2f\n", minsup * 100.0,
                max_m, max_scans, model.RunTime(Algorithm::kCD, cd.metrics),
                model.RunTime(Algorithm::kIDD, idd.metrics),
                model.RunTime(Algorithm::kHD, hd.metrics));
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: once CD needs multiple scans, IDD and HD win; the "
      "gap widens as M grows.\n");
  return 0;
}
