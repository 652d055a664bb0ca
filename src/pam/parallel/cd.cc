#include <algorithm>
#include <numeric>

#include "pam/mp/runtime.h"
#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"
#include "pam/util/timer.h"

namespace pam {
namespace {

// Count Distribution (paper Section III-A, Figure 4): every rank holds the
// full candidate hash tree, counts over its local slice, and the global
// counts are formed by one global reduction. When the candidate set
// exceeds the configured memory cap, the tree is partitioned and the local
// transactions are re-scanned once per partition — the behaviour Figure 12
// charges with extra I/O. On one rank this is the serial Apriori of the
// paper's Figure 1 (the reductions are no-ops).
RankOutput RunCd(const TransactionDatabase& db,
                 TransactionDatabase::Slice slice, Comm& comm,
                 const ParallelConfig& config) {
  const Count minsup = config.apriori.ResolveMinsup(db.size());
  const std::size_t cap = config.apriori.max_candidates_in_memory;
  CountingPool pool(config.apriori.threads_per_rank);

  const PassBody body = [&](int /*k*/, ItemsetCollection candidates,
                            PassMetrics& m) {
    const std::size_t num_candidates = candidates.size();
    m.grid_cols = comm.size();
    m.num_candidates_local = num_candidates;
    m.transactions_processed = slice.size();

    std::vector<Count> counts(num_candidates, 0);
    const std::size_t chunk_cap = cap == 0 ? num_candidates : cap;
    const std::size_t num_chunks =
        (num_candidates + chunk_cap - 1) / chunk_cap;
    m.db_scans = num_chunks;

    for (std::size_t chunk = 0; chunk < num_chunks; ++chunk) {
      const std::size_t lo = chunk * chunk_cap;
      const std::size_t hi = std::min(num_candidates, lo + chunk_cap);
      std::vector<std::uint32_t> ids(hi - lo);
      std::iota(ids.begin(), ids.end(), static_cast<std::uint32_t>(lo));
      obs::ScopedSpan build_span(obs::SpanKind::kTreeBuild,
                                 static_cast<std::int64_t>(chunk));
      HashTree tree(candidates, std::move(ids), config.apriori.tree);
      m.tree_build_inserts += tree.build_inserts();
      build_span.End();
      obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount,
                                 static_cast<std::int64_t>(chunk));
      TeamCounter team(&pool, &tree, std::span<Count>(counts), &m.subset,
                       /*root_filter=*/nullptr, &config.apriori.cancel);
      team.CountSlice(db, slice);
      team.Finish();
      AccumulateShardWork(m.shard_subset_work, team.shard_work());
      count_span.End();
      // Global reduction of this chunk's counts (the paper reduces per
      // hash-tree partition when memory-capped).
      comm.AllReduceSum(
          std::span<std::uint64_t>(counts.data() + lo, hi - lo));
      m.reduction_words += hi - lo;
    }

    candidates.counts() = std::move(counts);
    candidates.PruneBelow(minsup);
    return candidates;
  };
  return RunPasses(db, slice, comm, config, pool, body);
}

}  // namespace

RankOutput RunCdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config) {
  return RunCd(db, db.RankSlice(comm.rank(), comm.size()), comm, config);
}

// Serial Apriori is CD on one rank over the slice, with minsup resolved
// against the slice.
SerialResult MineSerial(const TransactionDatabase& db,
                        const AprioriConfig& config,
                        std::optional<TransactionDatabase::Slice> slice_opt) {
  const TransactionDatabase::Slice slice =
      slice_opt.value_or(TransactionDatabase::Slice{0, db.size()});
  WallTimer timer;
  SerialResult result;
  result.minsup_count = config.ResolveMinsup(slice.size());
  ParallelConfig one_rank;
  one_rank.apriori = config;
  one_rank.apriori.minsup_count = result.minsup_count;

  RankOutput out;
  Runtime runtime(1);
  runtime.SetCancelToken(config.cancel);
  runtime.Run(
      [&](Comm& comm) { out = RunCd(db, slice, comm, one_rank); });

  result.frequent = std::move(out.frequent);
  for (const PassMetrics& m : out.passes) {
    SerialPassInfo info;
    info.k = m.k;
    info.num_candidates = m.num_candidates_global;
    info.num_frequent = m.num_frequent_global;
    info.tree_build_inserts = m.tree_build_inserts;
    info.db_scans = m.db_scans;
    info.subset = m.subset;
    info.threads_per_rank = m.threads_per_rank;
    info.shard_subset_work = m.shard_subset_work;
    info.seconds = m.wall_seconds;
    result.passes.push_back(std::move(info));
  }
  result.total_seconds = timer.Seconds();
  return result;
}

}  // namespace pam
