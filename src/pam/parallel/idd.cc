#include "pam/parallel/algorithms.h"

namespace pam {

// Intelligent Data Distribution (paper Section III-C, Figure 7): candidates
// are partitioned by first item via bin packing, each rank filters the root
// level of the subset function with a bitmap of its owned first-items
// (Figure 8), and the database circulates through the ring pipeline of
// Figure 6 instead of DD's contention-prone all-to-all.
RankOutput RunIddRank(const TransactionDatabase& db, Comm& comm,
                      const ParallelConfig& config) {
  using parallel_internal::RingShiftAll;

  const int p = comm.size();
  const int rank = comm.rank();
  // Single-source mode: rank 0 owns the entire database and feeds the
  // ring; everyone else starts with an empty slice (the ring's round
  // padding keeps the pipeline in lockstep).
  const TransactionDatabase::Slice slice =
      config.single_source
          ? (rank == 0 ? TransactionDatabase::Slice{0, db.size()}
                       : TransactionDatabase::Slice{db.size(), db.size()})
          : db.RankSlice(rank, p);
  const Count minsup = config.apriori.ResolveMinsup(db.size());
  CountingPool pool(config.apriori.threads_per_rank);

  const PassBody body = [&](int /*k*/, ItemsetCollection candidates,
                            PassMetrics& m) {
    m.grid_rows = p;
    // Keep only the bin-packed share of C_k; the paper's implementation
    // likewise computes the first-item histogram, bin-packs, and
    // regenerates the local partition.
    const CandidatePartition partition = parallel_internal::PartitionPass(
        candidates, db.NumItems(), p, config, m);
    const auto part = static_cast<std::size_t>(rank);
    const std::vector<std::uint32_t>& my_ids = partition.ids_per_part[part];
    m.num_candidates_local = my_ids.size();

    std::vector<Count> counts = parallel_internal::CountPageStream(
        candidates, my_ids,
        config.idd_use_bitmap ? &partition.first_item_filter[part] : nullptr,
        config.apriori, &pool, m,
        [&](const std::function<void(PageView)>& process) {
          m.data_bytes_sent +=
              RingShiftAll(comm, Paginate(db, slice, config.page_bytes),
                           process, &m.data_messages_sent);
        });
    return parallel_internal::ExchangeOwnedFrequent(
        comm, candidates, std::move(counts), my_ids, minsup, m);
  };
  return RunPasses(db, slice, comm, config, pool, body);
}

}  // namespace pam
