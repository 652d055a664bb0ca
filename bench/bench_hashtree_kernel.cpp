// Subset-counting kernel comparison on a T10.I4.D100K-style Quest workload
// (10-item transactions, 4-item patterns, 100K transactions at scale 1.0).
// Each pass times the same candidates in three hash trees and the trie:
//   classic   the recursive pointer-chasing reference traversal of
//             tests/testing/reference.h on the paper-tuned tree
//             (TunedFor(M, k, 8))
//   flat      the flat structure-of-arrays kernel on that same tree
//   default   flat, the HashTreeConfig default shape (fanout 64,
//             8-candidate leaves): the hash tree every pass counts
//             through with use_pass2_triangle off, as in the figures
//   trie      the CandidateTrie, the production kernel of every tree pass
// All four must count identically, and classic and flat must report
// identical SubsetStats on their shared tree. The bench also times the
// specialized triangular pass-2 counter, and sweeps the intra-rank counting
// team over {1, 2, 4, 8} threads on the default hash tree, on the trie and
// (at k = 2) on the triangle, all through the one TeamCounter (counts and
// stats re-verified at every size). It writes the measurements
// to BENCH_kernel.json, including the host core count, without which the
// thread-sweep numbers cannot be interpreted, and exits non-zero on any
// count/stats mismatch.
//
//   --smoke   10K transactions, one repetition: exactness + JSON shape only
//             (CI gate)

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "pam/core/apriori_gen.h"
#include "pam/core/count_team.h"
#include "pam/hashtree/candidate_trie.h"
#include "pam/hashtree/counting_pool.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/util/timer.h"
#include "testing/reference.h"

namespace {

using namespace pam;

// The classic synthetic benchmark dataset of the association-rule
// literature: |T| = 10, |I| = 4, D = 100K, 1000 items.
QuestConfig KernelWorkload(std::size_t n) {
  QuestConfig q;
  q.num_transactions = n;
  q.num_items = 1000;
  q.avg_transaction_len = 10;
  q.avg_pattern_len = 4;
  q.num_patterns = 400;
  q.seed = 1997;
  return q;
}

struct KernelRun {
  double seconds = 0.0;
  std::vector<Count> counts;
  SubsetStats stats;
};

// Counts `candidates` over the whole database `reps` times in a `Tree`
// (the production HashTree or the reference traversal) of the given shape
// and keeps the fastest repetition (counts/stats are identical across
// repetitions by construction).
template <typename Tree>
KernelRun RunKernel(const TransactionDatabase& db,
                    const ItemsetCollection& candidates,
                    const HashTreeConfig& shape, int reps) {
  std::vector<std::uint32_t> ids(candidates.size());
  std::iota(ids.begin(), ids.end(), 0);
  Tree tree(candidates, ids, shape);

  KernelRun best;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Count> counts(candidates.size(), 0);
    SubsetStats stats;
    WallTimer timer;
    for (std::size_t t = 0; t < db.size(); ++t) {
      tree.Subset(db.Transaction(t), std::span<Count>(counts), &stats);
    }
    const double s = timer.Seconds();
    if (rep == 0 || s < best.seconds) {
      best.seconds = s;
      best.counts = std::move(counts);
      best.stats = stats;
    }
  }
  return best;
}

// The trie counterpart of RunKernel: builds once, counts every transaction
// through one scratch, keeps the fastest repetition.
KernelRun RunTrie(const TransactionDatabase& db,
                  const ItemsetCollection& candidates, int reps) {
  const CandidateTrie trie(candidates);
  CandidateTrie::Scratch scratch = trie.MakeScratch();
  KernelRun best;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Count> counts(candidates.size(), 0);
    SubsetStats stats;
    WallTimer timer;
    for (std::size_t t = 0; t < db.size(); ++t) {
      trie.Subset(db.Transaction(t), std::span<Count>(counts), &stats,
                  nullptr, scratch);
    }
    const double s = timer.Seconds();
    if (rep == 0 || s < best.seconds) {
      best.seconds = s;
      best.counts = std::move(counts);
      best.stats = stats;
    }
  }
  return best;
}

struct PassReport {
  int k = 0;
  std::size_t num_candidates = 0;
  double classic_seconds = 0.0;
  double flat_seconds = 0.0;
  double default_seconds = 0.0;
  double trie_seconds = 0.0;
  double triangle_seconds = -1.0;  // < 0 when the pass has no triangle path
  bool counts_identical = false;
  bool stats_identical = false;
  /// Counting-team sweep over the default shape: (threads, best seconds).
  std::vector<std::pair<int, double>> team;
  /// Same sweep over the trie.
  std::vector<std::pair<int, double>> trie_team;
  /// Same sweep for the pass-2 triangle team (k == 2 only).
  std::vector<std::pair<int, double>> triangle_team;
};

constexpr int kTeamSizes[] = {1, 2, 4, 8};

// Times the intra-rank counting team at one size over `tree`; the merged
// counts and stats must match the single-threaded run of the same kernel.
template <typename Tree>
double RunTeamKernel(const TransactionDatabase& db,
                     const ItemsetCollection& candidates, const Tree& tree,
                     int threads, int reps, const KernelRun& expect,
                     bool* ok) {
  CountingPool pool(threads);
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<Count> counts(candidates.size(), 0);
    SubsetStats stats;
    WallTimer timer;
    TeamCounter team(&pool, &tree, std::span<Count>(counts), &stats);
    team.CountSlice(db, {0, db.size()});
    team.Finish();
    const double s = timer.Seconds();
    if (rep == 0 || s < best) best = s;
    if (rep == 0) {
      *ok = *ok && counts == expect.counts && stats == expect.stats;
    }
  }
  return best;
}

// Compares the kernels and tree shapes (and, at k == 2, the triangular
// counter) on one candidate set. Returns the frequent survivors for the
// next pass.
PassReport ComparePass(const TransactionDatabase& db,
                       const ItemsetCollection& f_prev,
                       const ItemsetCollection& candidates, int reps,
                       Count minsup, ItemsetCollection* frequent_out) {
  PassReport r;
  r.k = candidates.k();
  r.num_candidates = candidates.size();

  const HashTreeConfig tuned =
      HashTreeConfig::TunedFor(candidates.size(), candidates.k(), 8);
  const HashTreeConfig production;

  KernelRun classic =
      RunKernel<testing::ReferenceHashTree>(db, candidates, tuned, reps);
  KernelRun flat = RunKernel<HashTree>(db, candidates, tuned, reps);
  KernelRun flat_default =
      RunKernel<HashTree>(db, candidates, production, reps);
  KernelRun trie = RunTrie(db, candidates, reps);
  r.classic_seconds = classic.seconds;
  r.flat_seconds = flat.seconds;
  r.default_seconds = flat_default.seconds;
  r.trie_seconds = trie.seconds;
  r.counts_identical = classic.counts == flat.counts &&
                       flat_default.counts == flat.counts &&
                       trie.counts == flat.counts;
  r.stats_identical = classic.stats == flat.stats;

  // Unfiltered C_2 = apriori_gen(F_1) is every pair of F_1 in the
  // triangle's row order, so the triangle counts straight into C_2-indexed
  // arrays, and its team sweep checks against its own 1-thread stats.
  if (r.k == 2 && TrianglePairCounter::Fits(f_prev.size(), 0)) {
    const TrianglePairCounter tri(f_prev);
    TrianglePairCounter::Scratch scratch = tri.MakeScratch();
    KernelRun single;
    for (int rep = 0; rep < reps; ++rep) {
      std::vector<Count> counts(tri.num_cells(), 0);
      SubsetStats stats;
      WallTimer timer;
      for (std::size_t t = 0; t < db.size(); ++t) {
        tri.Subset(db.Transaction(t), std::span<Count>(counts), &stats,
                   nullptr, scratch);
      }
      const double s = timer.Seconds();
      if (rep == 0 || s < single.seconds) {
        single.seconds = s;
        single.counts = std::move(counts);
        single.stats = stats;
      }
    }
    r.triangle_seconds = single.seconds;
    r.counts_identical = r.counts_identical && single.counts == flat.counts;
    for (const int threads : kTeamSizes) {
      bool ok = true;
      r.triangle_team.emplace_back(
          threads,
          RunTeamKernel(db, candidates, tri, threads, reps, single, &ok));
      r.counts_identical = r.counts_identical && ok;
      r.stats_identical = r.stats_identical && ok;
    }
  }

  const HashTree default_tree(candidates, production);
  const CandidateTrie production_trie(candidates);
  for (const int threads : kTeamSizes) {
    bool ok = true;
    r.team.emplace_back(threads,
                        RunTeamKernel(db, candidates, default_tree, threads,
                                      reps, flat_default, &ok));
    r.trie_team.emplace_back(threads,
                             RunTeamKernel(db, candidates, production_trie,
                                           threads, reps, trie, &ok));
    r.counts_identical = r.counts_identical && ok;
    r.stats_identical = r.stats_identical && ok;
  }

  if (frequent_out != nullptr) {
    ItemsetCollection survivors = candidates;
    survivors.counts() = flat.counts;
    survivors.PruneBelow(minsup);
    *frequent_out = std::move(survivors);
  }
  return r;
}

void PrintPass(const PassReport& r, std::size_t n) {
  const double classic_tps = static_cast<double>(n) / r.classic_seconds;
  const double flat_tps = static_cast<double>(n) / r.flat_seconds;
  std::printf("pass %d (%zu candidates):\n", r.k, r.num_candidates);
  std::printf("  classic  %8.3f s  (%10.0f tx/s)\n", r.classic_seconds,
              classic_tps);
  std::printf("  flat     %8.3f s  (%10.0f tx/s)  speedup %.2fx\n",
              r.flat_seconds, flat_tps,
              r.classic_seconds / r.flat_seconds);
  std::printf("  default  %8.3f s  (%10.0f tx/s)  vs flat %.2fx\n",
              r.default_seconds, static_cast<double>(n) / r.default_seconds,
              r.flat_seconds / r.default_seconds);
  std::printf("  trie     %8.3f s  (%10.0f tx/s)  vs default %.2fx\n",
              r.trie_seconds, static_cast<double>(n) / r.trie_seconds,
              r.default_seconds / r.trie_seconds);
  if (r.triangle_seconds >= 0.0) {
    std::printf("  triangle %8.3f s  (%10.0f tx/s)  speedup %.2fx\n",
                r.triangle_seconds,
                static_cast<double>(n) / r.triangle_seconds,
                r.classic_seconds / r.triangle_seconds);
  }
  for (const auto& [threads, seconds] : r.team) {
    std::printf("  team x%-2d %8.3f s  (%10.0f tx/s)  vs 1-thread %.2fx\n",
                threads, seconds, static_cast<double>(n) / seconds,
                r.team.front().second / seconds);
  }
  for (const auto& [threads, seconds] : r.trie_team) {
    std::printf("  trie x%-2d %8.3f s  (%10.0f tx/s)  vs 1-thread %.2fx\n",
                threads, seconds, static_cast<double>(n) / seconds,
                r.trie_team.front().second / seconds);
  }
  for (const auto& [threads, seconds] : r.triangle_team) {
    std::printf("  tri  x%-2d %8.3f s  (%10.0f tx/s)  vs 1-thread %.2fx\n",
                threads, seconds, static_cast<double>(n) / seconds,
                r.triangle_team.front().second / seconds);
  }
  std::printf("  counts identical: %s, stats identical: %s\n",
              r.counts_identical ? "yes" : "NO",
              r.stats_identical ? "yes" : "NO");
}

void AppendSweepJson(std::string* out, const char* name,
                     const std::vector<std::pair<int, double>>& sweep) {
  *out += std::string(",\n     \"") + name + "\": [";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"threads\": %d, \"seconds\": %.6f, "
                  "\"speedup_vs_1\": %.4f}",
                  i == 0 ? "" : ", ", sweep[i].first, sweep[i].second,
                  sweep.front().second / sweep[i].second);
    *out += buf;
  }
  *out += "]";
}

void AppendPassJson(std::string* out, const PassReport& r, std::size_t n) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"k\": %d, \"num_candidates\": %zu,\n"
      "     \"classic_seconds\": %.6f, \"flat_seconds\": %.6f,\n"
      "     \"classic_tx_per_sec\": %.1f, \"flat_tx_per_sec\": %.1f,\n"
      "     \"flat_speedup\": %.4f, \"triangle_seconds\": %.6f,\n"
      "     \"default_seconds\": %.6f, \"default_vs_flat\": %.4f,\n"
      "     \"trie_seconds\": %.6f, \"trie_vs_default\": %.4f,\n"
      "     \"counts_identical\": %s, \"stats_identical\": %s",
      r.k, r.num_candidates, r.classic_seconds, r.flat_seconds,
      static_cast<double>(n) / r.classic_seconds,
      static_cast<double>(n) / r.flat_seconds,
      r.classic_seconds / r.flat_seconds, r.triangle_seconds,
      r.default_seconds, r.flat_seconds / r.default_seconds,
      r.trie_seconds, r.default_seconds / r.trie_seconds,
      r.counts_identical ? "true" : "false",
      r.stats_identical ? "true" : "false");
  *out += buf;
  AppendSweepJson(out, "team", r.team);
  AppendSweepJson(out, "trie_team", r.trie_team);
  if (!r.triangle_team.empty()) {
    AppendSweepJson(out, "triangle_team", r.triangle_team);
  }
  *out += "}";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  bench::Banner(
      "Subset-counting kernel: classic vs flat vs trie vs pass-2 triangle",
      "engineering baseline for the Section IV counting terms "
      "(T10.I4.D100K workload)");

  const std::size_t n = smoke ? 10000 : bench::ScaledN(100000);
  const TransactionDatabase db = GenerateQuest(KernelWorkload(n));
  const Count minsup =
      static_cast<Count>(static_cast<double>(n) * 0.005) + 1;
  const int reps = smoke ? 1 : 3;

  std::vector<Count> item_counts = CountItems(db, {0, db.size()});
  ItemsetCollection f1 = MakeF1(item_counts, minsup);
  std::printf("N = %zu, minsup = %" PRIu64 ", |F1| = %zu, host cores = %u\n\n",
              n, static_cast<std::uint64_t>(minsup), f1.size(),
              std::thread::hardware_concurrency());

  std::vector<PassReport> reports;
  ItemsetCollection prev = std::move(f1);
  for (int k = 2; k <= 3; ++k) {
    ItemsetCollection candidates = AprioriGen(prev);
    if (candidates.size() < 2) break;
    ItemsetCollection next(k);
    reports.push_back(ComparePass(db, prev, candidates, reps, minsup, &next));
    PrintPass(reports.back(), n);
    std::printf("\n");
    prev = std::move(next);
    if (prev.size() < 2) break;
  }

  bool ok = !reports.empty();
  const unsigned host_cores = std::thread::hardware_concurrency();
  std::string json = "{\n";
  json += "  \"workload\": \"T10.I4.D" + std::to_string(n) + "\",\n";
  json += "  \"transactions\": " + std::to_string(n) + ",\n";
  json += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  json += "  \"build_type\": \"" + std::string(PAM_BUILD_TYPE) + "\",\n";
  json += "  \"reps\": " + std::to_string(reps) + ",\n";
  json += "  \"host_cpu_cores\": " + std::to_string(host_cores) + ",\n";
  // A tree pass counts through the default hash tree with
  // use_pass2_triangle off and through the trie with it on.
  json += "  \"before\": \"default\",\n  \"after\": \"trie\",\n";
  json += "  \"shapes\": {\"classic\": \"TunedFor(M, k, 8)\", "
          "\"flat\": \"TunedFor(M, k, 8)\", "
          "\"default\": \"HashTreeConfig{} (fanout 64, leaf capacity 8)\", "
          "\"trie\": \"CandidateTrie\", "
          "\"team\": \"default\", \"trie_team\": \"trie\", "
          "\"triangle_team\": \"TrianglePairCounter\"},\n";
  json += "  \"passes\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    AppendPassJson(&json, reports[i], n);
    json += i + 1 < reports.size() ? ",\n" : "\n";
    ok = ok && reports[i].counts_identical && reports[i].stats_identical;
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen("BENCH_kernel.json", "w");
  if (f != nullptr) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("wrote BENCH_kernel.json\n");
  }

  if (!ok) {
    std::printf("FAIL: kernel outputs differ\n");
    return 1;
  }
  return 0;
}
