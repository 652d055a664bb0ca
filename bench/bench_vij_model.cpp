// Section IV model validation: the paper's Equation 1 closed form
// V_{i,j} (expected distinct leaves visited for i potential candidates
// and j leaves) against the leaf visits actually measured by the
// instrumented hash tree on real Apriori candidate sets. Also prints the
// DD-vs-IDD prediction of the analysis: V_{C, L/P} vs P * V_{C/P, L/P}.

#include <cstdio>

#include "bench_util.h"
#include "pam/core/apriori_gen.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/model/vij.h"

int main() {
  using namespace pam;
  bench::Banner("V(i,j) distinct-leaf-visit model vs measurement",
                "Section IV, Equations 1-2 and the DD/IDD analysis");

  TransactionDatabase db =
      GenerateQuest(bench::PaperWorkload(bench::ScaledN(4000)));

  // Build a genuine C_2 at a few supports and compare model vs measured.
  std::printf("%10s %10s %10s %12s %14s %14s\n", "minsup%", "|C_k|",
              "leaves", "C (avg)", "V model", "V measured");
  for (double minsup : {0.01, 0.005, 0.0025}) {
    const Count abs_minsup =
        static_cast<Count>(minsup * static_cast<double>(db.size())) + 1;
    std::vector<Count> item_counts = CountItems(db, {0, db.size()});
    ItemsetCollection f1 = MakeF1(item_counts, abs_minsup);
    ItemsetCollection c2 = AprioriGen(f1);
    if (c2.empty()) continue;

    // The paper's hashed root: Equation 1 models leaves reached through
    // hashed buckets, not an item-indexed root.
    HashTreeConfig shape{8, 8};
    shape.identity_root = false;
    HashTree tree(c2, shape);
    std::vector<Count> counts(c2.size(), 0);
    SubsetStats stats;
    for (std::size_t t = 0; t < db.size(); ++t) {
      tree.Subset(db.Transaction(t), std::span<Count>(counts), &stats);
    }
    // Average potential candidates per transaction: the traversal opens
    // one path per (start item, following item) pair that exists in the
    // tree; approximate the paper's C = (I choose 2) from the data.
    const double avg_len = db.AverageLength();
    const double c_avg = BinomialCoefficient(
        static_cast<std::uint64_t>(avg_len + 0.5), 2);
    const double v_model = ExpectedDistinctLeaves(
        c_avg, static_cast<double>(tree.num_leaves()));
    std::printf("%10.4f %10zu %10zu %12.1f %14.2f %14.2f\n", minsup * 100.0,
                c2.size(), tree.num_leaves(), c_avg, v_model,
                stats.AvgLeafVisitsPerTransaction());
  }

  // The analysis behind Figure 11: per-processor leaf-visit totals for DD
  // (V_{C, L/P}) vs IDD (V_{C/P, L/P}) from the closed form.
  std::printf("\nClosed-form DD vs IDD distinct-leaf predictions "
              "(C = 105, L = 512):\n");
  std::printf("%6s %16s %16s %12s\n", "P", "DD V(C,L/P)", "IDD V(C/P,L/P)",
              "ratio");
  const double c = 105.0;
  const double l = 512.0;
  for (double p : {1.0, 2.0, 4.0, 8.0, 16.0, 32.0}) {
    const double dd = ExpectedDistinctLeaves(c, l / p);
    const double idd = ExpectedDistinctLeaves(c / p, l / p);
    std::printf("%6.0f %16.2f %16.2f %12.2f\n", p, dd, idd, dd / idd);
  }
  std::printf(
      "\nShape check: measured V within ~2x of the model (the closed form "
      "assumes uniform leaf\nreach; real hash paths are skewed); DD/IDD "
      "ratio grows toward P.\n");
  return 0;
}
