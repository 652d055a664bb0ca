// Robustness study: the paper's qualitative conclusions (HD <= CD < DD;
// IDD between CD and DD at moderate P) should not depend on the exact
// dataset family. This harness re-runs the scaleup comparison on the
// classic Agrawal-Srikant workload families (T5.I2, T10.I4, T15.I6,
// T20.I6) at a fixed processor count and reports the modeled T3E times.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Workload-family robustness of the algorithm ordering",
                "Section V conclusions across T5.I2 / T10.I4 / T15.I6 / "
                "T20.I6 data");

  const int p = 8;
  const std::size_t n = bench::ScaledN(6400);
  const CostModel model(MachineModel::CrayT3E());

  struct Family {
    const char* name;
    QuestConfig config;
  };
  const Family families[] = {
      {"T5.I2", QuestT5I2(n, 1997)},
      {"T10.I4", QuestT10I4(n, 1997)},
      {"T15.I6", QuestT15I6(n, 1997)},
      {"T20.I6", QuestT20I6(n, 1997)},
  };

  std::printf("P = %d, N = %zu, 2%% minimum support\n\n", p, n);
  std::printf("%-8s %10s | %10s %10s %10s %10s %10s\n", "family",
              "frequent", "CD", "DD", "DD+comm", "IDD", "HD");
  for (const Family& family : families) {
    QuestConfig quest = family.config;
    quest.num_patterns = 40;  // concentrated pool, as in the Fig-10 bench
    TransactionDatabase db = GenerateQuest(quest);
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = 0.02;
    cfg.apriori.use_pass2_triangle = false;  // instrument pass 2 via the tree
    cfg.hd_threshold_m = 2000;

    std::printf("%-8s", family.name);
    std::size_t frequent = 0;
    double times[5] = {0, 0, 0, 0, 0};
    const Algorithm algs[] = {Algorithm::kCD, Algorithm::kDD,
                              Algorithm::kDDComm, Algorithm::kIDD,
                              Algorithm::kHD};
    for (int a = 0; a < 5; ++a) {
      MiningReport result = bench::Mine(algs[a], db, p, cfg);
      times[a] = model.RunTime(algs[a], result.metrics);
      frequent = result.frequent.TotalCount();
    }
    std::printf(" %10zu |", frequent);
    for (double t : times) std::printf(" %10.3f", t);
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: on every family, DD is worst, DD+comm second worst, "
      "IDD above CD,\nand HD within a few percent of CD (below it on the "
      "lighter families).\n");

  // --- Fault-recovery overhead -----------------------------------------
  // The same conclusions must survive a faulty transport: under the
  // deterministic fault schedule (5% of delivery attempts corrupted,
  // dropped, duplicated, reordered, ... with a retransmit budget) every
  // formulation must still produce identical frequent itemsets, and the
  // recovery traffic should stay a modest multiple of the fault count.
  bench::Banner("Fault-recovery overhead",
                "mixed transport faults, 5% per kind, retransmit budget 8");
  {
    TransactionDatabase db = GenerateQuest(QuestT10I4(bench::ScaledN(1600),
                                                      1997));
    ParallelConfig clean_cfg;
    clean_cfg.apriori.minsup_fraction = 0.02;
    // Move pages on pass 2 too: a triangle pass sends no data.
    clean_cfg.apriori.use_pass2_triangle = false;
    ParallelConfig faulty_cfg = clean_cfg;
    faulty_cfg.fault = FaultConfig::Mixed(0.3, /*seed=*/1997,
                                          /*max_retries=*/8);
    faulty_cfg.fault.recv_timeout_ms = 10000;

    std::printf("%-8s %10s %10s %10s %10s %8s\n", "alg", "messages",
                "injected", "retransmit", "detected", "exact");
    const Algorithm algs[] = {Algorithm::kCD, Algorithm::kDD,
                              Algorithm::kIDD, Algorithm::kHD};
    for (Algorithm alg : algs) {
      MiningReport clean = bench::Mine(alg, db, p, clean_cfg);
      MiningReport faulty = bench::Mine(alg, db, p, faulty_cfg);
      std::uint64_t messages = 0;
      for (const auto& pass : faulty.metrics.per_pass) {
        for (const auto& m : pass) messages += m.data_messages_sent;
      }
      const bool exact =
          bench::SameItemsets(clean.frequent, faulty.frequent);
      std::printf("%-8s %10llu %10llu %10llu %10llu %8s\n",
                  AlgorithmName(alg).c_str(),
                  static_cast<unsigned long long>(messages),
                  static_cast<unsigned long long>(
                      faulty.metrics.TotalFaultsInjected()),
                  static_cast<unsigned long long>(
                      faulty.metrics.TotalCommRetries()),
                  static_cast<unsigned long long>(
                      faulty.metrics.TotalFaultsDetected()),
                  exact ? "yes" : "NO");
      std::fflush(stdout);
    }
    std::printf(
        "\nEvery row must read `exact = yes`: the envelope framing repairs "
        "all\ninjected faults transparently or the run would have aborted "
        "with CommError.\n");
  }
  return 0;
}
