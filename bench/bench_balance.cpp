// Static load balancing on skewed-prefix data (paper Section III-C):
// drives IDD at P=8 over a hot-prefix / low-corruption Quest workload and
// compares the contiguous first-item ablation ("items 1..50 to P0, 51..100
// to P1") with the paper's bin packing, pass by pass. Writes
// BENCH_balance.json (the committed copy lives at the repo root) and exits
// non-zero if either variant's mined output diverges from the serial
// reference.
//
//   --smoke   tiny workload, exactness + JSON shape only (CI gate)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "pam/core/serial_apriori.h"

namespace {

using namespace pam;

struct Variant {
  const char* name;
  PrefixStrategy strategy;
};

struct PassRow {
  int k = 0;
  double max = 0.0;
  double mean = 0.0;
};

struct VariantResult {
  std::string name;
  std::vector<PassRow> passes;
  double total_max = 0.0;
  double total_mean = 0.0;
  double wall_seconds = 0.0;
  double modeled_seconds = 0.0;
  bool exact = false;

  double TotalImbalance() const {
    return total_mean > 0.0 ? total_max / total_mean : 1.0;
  }
};

// The skewed-prefix scenario: a 40-item hot prefix absorbing 30% of item
// draws piles candidates onto few first items, and low pattern corruption
// keeps structured candidate runs alive deep into the passes alongside the
// dense hot block — contiguous item ranges then load a few ranks with most
// of the work, which bin packing on candidate counts evens out.
QuestConfig SkewedWorkload(std::size_t n) {
  QuestConfig q;
  q.num_transactions = n;
  q.num_items = 2000;
  q.avg_transaction_len = 16;
  q.avg_pattern_len = 6;
  q.num_patterns = 80;
  q.corruption_mean = 0.15;
  q.hot_items = 40;
  q.hot_item_mass = 0.3;
  q.seed = 7;
  return q;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  bench::Banner("static load balancing (skewed prefix)",
                "Section III-C / DESIGN.md §14: bin packing vs contiguous "
                "first-item ranges");

  const int p = 8;
  const double minsup = 0.01;
  const std::size_t n = smoke ? 800 : bench::ScaledN(4000);
  const TransactionDatabase db = GenerateQuest(SkewedWorkload(n));
  const CostModel model(MachineModel::CrayT3E());

  AprioriConfig serial_cfg;
  serial_cfg.minsup_fraction = minsup;
  const MiningReport serial = MineSerial(db, serial_cfg);

  const Variant variants[] = {
      {"static-contiguous", PrefixStrategy::kContiguous},
      {"static-binpack", PrefixStrategy::kBinPacked},
  };

  std::printf("P = %d, N = %zu, items = 2000, minsup = %.2f%%, "
              "hot prefix 40 @ 30%%\n\n",
              p, db.size(), minsup * 100.0);

  std::vector<VariantResult> results;
  bool all_exact = true;
  for (const Variant& v : variants) {
    ParallelConfig cfg;
    cfg.apriori.minsup_fraction = minsup;
    cfg.prefix_strategy = v.strategy;

    // Counters and digests are deterministic across repetitions; wall time
    // is not (the rank threads time-slice the host cores), so report the
    // best of a few runs per variant.
    const int reps = smoke ? 1 : 3;
    MiningReport report = bench::Mine(Algorithm::kIDD, db, p, cfg);
    double best_wall = report.wall_seconds;
    for (int rep = 1; rep < reps; ++rep) {
      const MiningReport again = bench::Mine(Algorithm::kIDD, db, p, cfg);
      best_wall = std::min(best_wall, again.wall_seconds);
    }
    VariantResult r;
    r.name = v.name;
    r.wall_seconds = best_wall;
    r.modeled_seconds = model.RunTime(Algorithm::kIDD, report.metrics);
    r.exact = bench::SameItemsets(report.frequent, serial.frequent);
    all_exact = all_exact && r.exact;
    // Pass 1 (item counting) and the pass-2 triangle have no hash tree and
    // no partition to balance; the imbalance story is the tree passes.
    for (int pass = 1; pass < report.metrics.num_passes(); ++pass) {
      const LoadSummary s = report.metrics.SubsetWorkBalance(pass);
      if (s.mean <= 0.0) continue;
      PassRow row;
      row.k = report.metrics.per_pass[static_cast<std::size_t>(pass)][0].k;
      row.max = s.max;
      row.mean = s.mean;
      r.passes.push_back(row);
      r.total_max += s.max;
      r.total_mean += s.mean;
    }
    results.push_back(std::move(r));
  }

  std::printf("%-20s %12s %12s %10s %12s %8s\n", "variant", "imbalance",
              "excess", "wall (s)", "T3E (s)", "exact");
  for (const VariantResult& r : results) {
    std::printf("%-20s %12.3f %11.1f%% %10.3f %12.3f %8s\n", r.name.c_str(),
                r.TotalImbalance(), (r.TotalImbalance() - 1.0) * 100.0,
                r.wall_seconds, r.modeled_seconds, r.exact ? "yes" : "NO");
  }

  std::printf("\nper-pass max/mean subset work:\n");
  std::printf("%6s %14s %14s\n", "k", "contiguous", "binpack");
  for (std::size_t i = 0;
       i < results[0].passes.size() && i < results[1].passes.size(); ++i) {
    const PassRow& c = results[0].passes[i];
    const PassRow& b = results[1].passes[i];
    std::printf("%6d %14.3f %14.3f\n", c.k, c.max / c.mean, b.max / b.mean);
  }

  std::FILE* f = std::fopen("BENCH_balance.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"balance\",\n"
                 "  \"smoke\": %s,\n"
                 "  \"build_type\": \"%s\",\n"
                 "  \"host_cpu_cores\": %u,\n"
                 "  \"ranks\": %d,\n"
                 "  \"transactions\": %zu,\n"
                 "  \"minsup_fraction\": %.4f,\n"
                 "  \"hot_items\": 40,\n"
                 "  \"hot_item_mass\": 0.3,\n"
                 "  \"variants\": [\n",
                 smoke ? "true" : "false", PAM_BUILD_TYPE,
                 std::thread::hardware_concurrency(), p, db.size(), minsup);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const VariantResult& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"total_imbalance\": %.4f, "
                   "\"wall_seconds\": %.4f, \"modeled_t3e_seconds\": %.4f, "
                   "\"exact\": %s,\n"
                   "     \"per_pass\": [",
                   r.name.c_str(), r.TotalImbalance(), r.wall_seconds,
                   r.modeled_seconds, r.exact ? "true" : "false");
      for (std::size_t j = 0; j < r.passes.size(); ++j) {
        const PassRow& row = r.passes[j];
        std::fprintf(f, "%s{\"k\": %d, \"imbalance\": %.4f}",
                     j > 0 ? ", " : "", row.k, row.max / row.mean);
      }
      std::fprintf(f, "]}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"all_exact\": %s\n"
                 "}\n",
                 all_exact ? "true" : "false");
    std::fclose(f);
    std::printf("\nwrote BENCH_balance.json\n");
  }

  if (!all_exact) {
    std::printf("FAIL: a variant diverged from the serial reference\n");
    return 1;
  }
  return 0;
}
