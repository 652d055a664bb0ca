#ifndef PAM_BENCH_BENCH_UTIL_H_
#define PAM_BENCH_BENCH_UTIL_H_

// Shared helpers for the figure/table reproduction harnesses. Every bench
// binary prints the series of one table or figure of the paper (see
// DESIGN.md's experiment index and EXPERIMENTS.md for paper-vs-measured).
//
// Scale: the paper's runs use up to 26M transactions and 8M candidates on
// a 128-processor Cray T3E; these harnesses default to workloads that
// finish in seconds on one host core and preserve the N/M/P *ratios*. Set
// PAM_BENCH_SCALE=<float> to grow or shrink every workload proportionally.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "pam/api/session.h"
#include "pam/datagen/quest_gen.h"
#include "pam/model/cost_model.h"

namespace pam::bench {

/// Runs one parallel formulation through the MiningSession facade — the
/// public entry point every harness exercises. No observers are attached,
/// so this is the zero-overhead path.
inline MiningReport Mine(Algorithm algorithm, const TransactionDatabase& db,
                         int num_ranks, const ParallelConfig& config) {
  MiningRequest request;
  request.algorithm = FromParallelAlgorithm(algorithm);
  request.num_ranks = num_ranks;
  request.config = config;
  MiningSession session;
  return session.Run(request, db);
}

/// True if two mining results hold exactly the same itemsets with the same
/// counts (used by the fault-recovery bench to certify exactness).
inline bool SameItemsets(const FrequentItemsets& a,
                         const FrequentItemsets& b) {
  if (a.levels.size() != b.levels.size()) return false;
  for (std::size_t l = 0; l < a.levels.size(); ++l) {
    const auto& la = a.levels[l];
    const auto& lb = b.levels[l];
    if (la.size() != lb.size()) return false;
    for (std::size_t i = 0; i < la.size(); ++i) {
      ItemSpan sa = la.Get(i);
      ItemSpan sb = lb.Get(i);
      if (la.count(i) != lb.count(i) || sa.size() != sb.size() ||
          !std::equal(sa.begin(), sa.end(), sb.begin())) {
        return false;
      }
    }
  }
  return true;
}

/// Multiplier from the PAM_BENCH_SCALE environment variable (default 1.0).
inline double Scale() {
  const char* env = std::getenv("PAM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double v = std::atof(env);
  return v > 0.0 ? v : 1.0;
}

/// Scaled transaction count.
inline std::size_t ScaledN(std::size_t base) {
  return static_cast<std::size_t>(static_cast<double>(base) * Scale());
}

/// The paper's T15.I6-family workload at a given size. All figure benches
/// share these generator statistics so candidate growth behaves like the
/// paper's dataset as minsup drops.
inline QuestConfig PaperWorkload(std::size_t num_transactions,
                                 std::uint64_t seed = 1997) {
  QuestConfig q;
  q.num_transactions = num_transactions;
  q.num_items = 1000;
  q.avg_transaction_len = 15;
  q.avg_pattern_len = 6;
  q.num_patterns = 400;
  q.seed = seed;
  return q;
}

/// The scaleup workload of Figure 10: like PaperWorkload but with a more
/// concentrated pattern pool so that, at bench scale, the candidate count
/// stays small relative to N (the paper's scaleup runs are in the
/// N-dominated regime: 50K transactions per processor vs 351K peak
/// candidates across the whole machine).
inline QuestConfig ScaleupWorkload(std::size_t num_transactions,
                                   std::uint64_t seed = 1997) {
  QuestConfig q = PaperWorkload(num_transactions, seed);
  q.num_patterns = 40;
  return q;
}

/// Header banner for a harness.
inline void Banner(const std::string& what, const std::string& paper_ref) {
  std::printf("=== %s ===\n", what.c_str());
  std::printf("Reproduces: %s\n", paper_ref.c_str());
  std::printf("Scale factor: %.2f (set PAM_BENCH_SCALE to change)\n\n",
              Scale());
}

}  // namespace pam::bench

#endif  // PAM_BENCH_BENCH_UTIL_H_
