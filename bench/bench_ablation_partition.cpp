// Ablation bench for the design choices DESIGN.md stars:
//   1. bin-packed vs contiguous first-item partitioning (paper III-C's
//      bad-partition example),
//   2. the root bitmap filter (Figure 8) on vs off,
//   3. heavy-prefix splitting on vs off under skew,
//   4. bin-packed vs contiguous partitioning on skewed-prefix generator
//      scenarios.
// Reports candidate balance, subset work, and modeled T3E time for IDD.

#include <cstdio>

#include "bench_util.h"

namespace {

struct Variant {
  const char* name;
  pam::PrefixStrategy strategy;
  bool bitmap;
  bool split_heavy;
};

// Skewed-prefix generator scenarios: each stacks more cost skew onto the
// first items, from the paper-shaped baseline (no hot prefix) to a hot
// block soaking up 40% of item draws.
struct SkewScenario {
  const char* name;
  pam::Item hot_items;
  double hot_mass;
  double corruption;
};

// Many patterns over a big universe at low corruption keep structured
// candidate runs alive beside the dense hot block; see bench_balance.cpp.
pam::QuestConfig SkewWorkload(std::size_t n, const SkewScenario& s) {
  pam::QuestConfig q;
  q.num_transactions = n;
  q.num_items = 2000;
  q.avg_transaction_len = 16;
  q.avg_pattern_len = 6;
  q.num_patterns = 80;
  q.corruption_mean = s.corruption;
  q.hot_items = s.hot_items;
  q.hot_item_mass = s.hot_mass;
  q.seed = 7;
  return q;
}

// Work-weighted total imbalance across the hash-tree passes: sum of
// per-pass maxima over sum of per-pass means.
double TotalImbalance(const pam::RunMetrics& metrics) {
  double total_max = 0.0;
  double total_mean = 0.0;
  for (int pass = 1; pass < metrics.num_passes(); ++pass) {
    const pam::LoadSummary s = metrics.SubsetWorkBalance(pass);
    if (s.mean <= 0.0) continue;
    total_max += s.max;
    total_mean += s.mean;
  }
  return total_mean > 0.0 ? total_max / total_mean : 1.0;
}

}  // namespace

int main() {
  using namespace pam;
  bench::Banner("IDD partitioning ablations",
                "Section III-C design choices (bin packing, bitmap filter, "
                "heavy-prefix splitting)");

  const int p = 8;
  TransactionDatabase db =
      GenerateQuest(bench::PaperWorkload(bench::ScaledN(6000)));
  const CostModel model(MachineModel::CrayT3E());

  const Variant variants[] = {
      {"full IDD (packed+bitmap+split)", PrefixStrategy::kBinPacked, true,
       true},
      {"no heavy-prefix split", PrefixStrategy::kBinPacked, true, false},
      {"no bitmap filter", PrefixStrategy::kBinPacked, false, true},
      {"contiguous partition", PrefixStrategy::kContiguous, true, false},
      {"contiguous, no bitmap", PrefixStrategy::kContiguous, false, false},
  };

  std::printf("P = %d, N = %zu, 0.25%% minimum support\n\n", p, db.size());
  std::printf("%-34s %14s %14s %14s %12s\n", "variant", "trav steps",
              "leaf visits", "imbalance", "T3E (s)");

  for (const Variant& v : variants) {
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = 0.0025;
    // Partition pass 2 too: a triangle pass is CD's in every formulation.
    cfg.apriori.use_pass2_triangle = false;
    cfg.prefix_strategy = v.strategy;
    cfg.idd_use_bitmap = v.bitmap;
    cfg.split_heavy_prefixes = v.split_heavy;

    MiningReport result = bench::Mine(Algorithm::kIDD, db, p, cfg);
    std::uint64_t steps = 0;
    std::uint64_t visits = 0;
    double heaviest_work = -1.0;
    double imbalance = 1.0;
    for (int pass = 1; pass < result.metrics.num_passes(); ++pass) {
      const SubsetStats stats = result.metrics.PassSubsetStats(pass);
      steps += stats.traversal_steps;
      visits += stats.distinct_leaf_visits;
      const LoadSummary balance = result.metrics.SubsetWorkBalance(pass);
      if (balance.total > heaviest_work) {
        heaviest_work = balance.total;
        imbalance = balance.imbalance;
      }
    }
    std::printf("%-34s %14llu %14llu %13.1f%% %12.3f\n", v.name,
                static_cast<unsigned long long>(steps),
                static_cast<unsigned long long>(visits),
                (imbalance - 1.0) * 100.0,
                model.RunTime(Algorithm::kIDD, result.metrics));
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: removing the bitmap inflates traversal work; "
      "contiguous partitioning inflates imbalance.\n");

  // Part 2 — skewed-prefix scenarios: static-contiguous vs static-binpack,
  // by work-weighted total imbalance (sum of per-pass maxima over sum of
  // per-pass means).
  std::printf("\nskewed-prefix scenarios (excess imbalance = max/mean - 1):\n");
  std::printf("%-26s %14s %14s\n", "scenario", "contiguous", "binpack");

  const SkewScenario scenarios[] = {
      {"paper-shaped (no hot)", 0, 0.0, 0.5},
      {"structured, no hot", 0, 0.0, 0.15},
      {"hot 40 @ 30%", 40, 0.3, 0.15},
      {"hot 40 @ 40%", 40, 0.4, 0.15},
  };
  const Variant skew_variants[] = {
      {"contiguous", PrefixStrategy::kContiguous, true, false},
      {"binpack", PrefixStrategy::kBinPacked, true, true},
  };

  for (const SkewScenario& s : scenarios) {
    TransactionDatabase skew_db =
        GenerateQuest(SkewWorkload(bench::ScaledN(4000), s));
    double excess[2] = {0.0, 0.0};
    for (int i = 0; i < 2; ++i) {
      ParallelConfig cfg;
      cfg.apriori.minsup_fraction = 0.01;
      cfg.apriori.use_pass2_triangle = false;
      cfg.prefix_strategy = skew_variants[i].strategy;
      cfg.split_heavy_prefixes = skew_variants[i].split_heavy;
      MiningReport result = bench::Mine(Algorithm::kIDD, skew_db, p, cfg);
      excess[i] = (TotalImbalance(result.metrics) - 1.0) * 100.0;
    }
    std::printf("%-26s %13.1f%% %13.1f%%\n", s.name, excess[0], excess[1]);
    std::fflush(stdout);
  }
  std::printf(
      "\nShape check: binpack cuts contiguous's excess imbalance in every "
      "scenario.\n");
  return 0;
}
