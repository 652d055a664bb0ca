#include "pam/parallel/algorithms.h"

namespace pam {

// Hybrid Distribution (paper Section III-D, Figure 9): the P processors
// form a logical G x (P/G) grid, chosen per pass from the candidate count
// (Table II). Candidates are partitioned (IDD-style) among the G rows;
// transactions circulate through the IDD ring within each column (step 1),
// counts are reduced CD-style along rows (step 2), and the frequent subsets
// are exchanged along columns (step 3).
RankOutput RunHdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config) {
  using parallel_internal::ChooseGridRows;
  using parallel_internal::RingShiftAll;
  using parallel_internal::SmallestDivisorAtLeast;

  const int p = comm.size();
  const int rank = comm.rank();
  const TransactionDatabase::Slice slice = db.RankSlice(rank, p);
  const Count minsup = config.apriori.ResolveMinsup(db.size());

  const PassBody body = [&](int k, ItemsetCollection candidates,
                            CountingPool& pool, PassMetrics& m) {
    // Dynamic grid configuration (Table II), unless pinned by the caller.
    const int rows =
        config.hd_forced_rows > 0
            ? SmallestDivisorAtLeast(
                  static_cast<std::size_t>(config.hd_forced_rows), p)
            : ChooseGridRows(candidates.size(), config.hd_threshold_m, p);
    const int cols = p / rows;
    const int my_row = rank / cols;
    const int my_col = rank % cols;
    m.grid_rows = rows;
    m.grid_cols = cols;

    std::vector<int> column_members;
    for (int r = 0; r < rows; ++r) column_members.push_back(my_col + r * cols);
    std::vector<int> row_members;
    for (int c = 0; c < cols; ++c) row_members.push_back(my_row * cols + c);
    Comm col_comm = comm.Sub(
        column_members,
        (static_cast<std::uint64_t>(k) << 32) | 0x0000434fULL /* "CO" */);
    Comm row_comm = comm.Sub(
        row_members,
        (static_cast<std::uint64_t>(k) << 32) | 0x0000524fULL /* "RO" */);

    // Candidate partition among the G rows; identical in every column.
    const CandidatePartition partition = parallel_internal::PartitionPass(
        candidates, db.NumItems(), rows, config, m);
    const auto part = static_cast<std::size_t>(my_row);
    const std::vector<std::uint32_t>& my_ids = partition.ids_per_part[part];
    m.num_candidates_local = my_ids.size();

    // Step 1: IDD within the column — each rank sees the G * N/P
    // transactions of its column.
    std::vector<Count> counts = parallel_internal::CountPageStream(
        candidates, my_ids,
        config.idd_use_bitmap ? &partition.first_item_filter[part] : nullptr,
        config.apriori, &pool, m,
        [&](const std::function<void(PageView)>& process) {
          m.data_bytes_sent +=
              RingShiftAll(col_comm, Paginate(db, slice, config.page_bytes),
                           process, &m.data_messages_sent);
        });

    // Step 2: reduction along the row — every rank of a row holds the same
    // candidate subset; sum their per-column counts.
    if (cols > 1) {
      std::vector<std::uint64_t> dense(my_ids.size());
      for (std::size_t i = 0; i < my_ids.size(); ++i) {
        dense[i] = counts[my_ids[i]];
      }
      row_comm.AllReduceSum(std::span<std::uint64_t>(dense));
      for (std::size_t i = 0; i < my_ids.size(); ++i) {
        counts[my_ids[i]] = dense[i];
      }
      m.reduction_words += my_ids.size();
    }

    // Step 3: all-to-all broadcast of frequent subsets along the column
    // (one representative of every row per column).
    return parallel_internal::ExchangeOwnedFrequent(
        col_comm, candidates, std::move(counts), my_ids, minsup, m);
  };
  return RunPasses(db, slice, comm, config, body);
}

}  // namespace pam
