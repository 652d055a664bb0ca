#include <algorithm>
#include <numeric>

#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"

namespace pam {

// Count Distribution (paper Section III-A, Figure 4): every rank holds the
// full candidate tree, counts over its local slice, and the global
// counts are formed by one global reduction. When the candidate set
// exceeds the configured memory cap, the tree is partitioned and the local
// transactions are re-scanned once per partition — the behaviour Figure 12
// charges with extra I/O. On one rank this is the serial Apriori of the
// paper's Figure 1 (the reductions are no-ops; MineSerial runs it).
RankOutput RunCdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config) {
  const TransactionDatabase::Slice slice =
      db.RankSlice(comm.rank(), comm.size());
  const Count minsup = config.apriori.ResolveMinsup(db.size());
  const std::size_t cap = config.apriori.max_candidates_in_memory;

  const PassBody body = [&](int /*k*/, ItemsetCollection candidates,
                            CountingPool& pool, PassMetrics& m) {
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
      const auto index = static_cast<std::int64_t>(chunk);
      parallel_internal::BuildAndCount(
          candidates, std::move(ids), config.apriori, index, m,
          [&](const auto& tree) {
            obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, index);
            TeamCounter team(&pool, &tree, std::span<Count>(counts),
                             &m.subset, /*root_filter=*/nullptr,
                             &config.apriori.cancel);
            team.CountSlice(db, slice);
            team.Finish();
            AccumulateShardWork(m.shard_subset_work, team.shard_work());
          });
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
  return RunPasses(db, slice, comm, config, body);
}

}  // namespace pam
