// Section III-E reproduction: communication volume of HPA vs DD/IDD per
// pass. The paper argues that HPA ships (|t| choose k) potential
// candidates per transaction, so for k > 2 its volume can far exceed DD's
// and IDD's (which ship each transaction once per pass, i.e. O(|t|)
// items), while for k = 2 HPA can come out cheaper. This harness measures
// the exact bytes each formulation moved in every pass.

#include <cstdio>

#include "bench_util.h"

int main() {
  using namespace pam;
  bench::Banner("Per-pass communication volume: HPA vs DD vs IDD",
                "Section III-E (HPA's O(|t| choose k) subset traffic vs "
                "IDD's O(|t|))");

  const int p = 8;
  TransactionDatabase db =
      GenerateQuest(bench::PaperWorkload(bench::ScaledN(4000)));
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.0075;
  // Route pass 2's pairs too (Section III-E): a triangle pass sends none.
  cfg.apriori.use_pass2_triangle = false;

  MiningReport dd = bench::Mine(Algorithm::kDD, db, p, cfg);
  MiningReport idd = bench::Mine(Algorithm::kIDD, db, p, cfg);
  MiningReport hpa = bench::Mine(Algorithm::kHPA, db, p, cfg);

  std::printf("P = %d, N = %zu, avg transaction length %.1f\n\n", p,
              db.size(), db.AverageLength());
  std::printf("%6s %12s %14s %14s %14s %12s\n", "pass", "candidates",
              "DD MB", "IDD MB", "HPA MB", "HPA/IDD");
  const int passes = std::min(
      {dd.metrics.num_passes(), idd.metrics.num_passes(),
       hpa.metrics.num_passes()});
  for (int pass = 1; pass < passes; ++pass) {
    const double dd_mb =
        static_cast<double>(dd.metrics.TotalDataBytes(pass)) / 1048576.0;
    const double idd_mb =
        static_cast<double>(idd.metrics.TotalDataBytes(pass)) / 1048576.0;
    const double hpa_mb =
        static_cast<double>(hpa.metrics.TotalDataBytes(pass)) / 1048576.0;
    std::printf(
        "%6d %12zu %14.2f %14.2f %14.2f %12.2f\n",
        dd.metrics.per_pass[static_cast<std::size_t>(pass)][0].k,
        dd.metrics.per_pass[static_cast<std::size_t>(pass)][0]
            .num_candidates_global,
        dd_mb, idd_mb, hpa_mb, idd_mb > 0 ? hpa_mb / idd_mb : 0.0);
  }
  std::printf(
      "\nShape check: HPA's volume peaks in the middle passes and exceeds "
      "IDD's for k >= 3;\nDD and IDD ship identical, k-independent "
      "volumes.\n");
  return 0;
}
