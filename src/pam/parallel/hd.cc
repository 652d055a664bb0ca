#include <optional>

#include "pam/core/apriori_gen.h"
#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"
#include "pam/parallel/load_model.h"
#include "pam/util/timer.h"

namespace pam {

// Hybrid Distribution (paper Section III-D, Figure 9): the P processors
// form a logical G x (P/G) grid, chosen per pass from the candidate count
// (Table II). Candidates are partitioned (IDD-style) among the G rows;
// transactions circulate through the IDD ring within each column (step 1),
// counts are reduced CD-style along rows (step 2), and the frequent subsets
// are exchanged along columns (step 3).
//
// With config.adaptive_balance the per-pass G comes from the LoadModel's
// measured compute/comm ratio once a tree pass has calibrated it (falling
// back to the static Table-II heuristic before that), and the row
// partition uses measured per-first-item weights (DESIGN.md §14). Every
// input to both decisions is a globally-reduced deterministic counter, so
// all ranks pick the same grid; output stays byte-identical to static.
RankOutput RunHdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config) {
  using parallel_internal::ChooseGridRows;
  using parallel_internal::ExchangeFrequent;
  using parallel_internal::FrequentSubset;
  using parallel_internal::ParallelPass1;
  using parallel_internal::RingShiftAll;

  RankOutput out;
  const int p = comm.size();
  const int rank = comm.rank();
  const TransactionDatabase::Slice slice = db.RankSlice(rank, p);
  const Count minsup = config.apriori.ResolveMinsup(db.size());
  std::vector<Count> dhp_buckets;  // PDM-style DHP filter state (optional)
  CountingPool pool(config.apriori.threads_per_rank);
  const bool adaptive = config.adaptive_balance;
  const bool adaptive_weights =
      adaptive && config.prefix_strategy == PrefixStrategy::kBinPacked;
  LoadModel model(db.NumItems());
  // The dynamic-G comm term must be identical on every rank: use the
  // whole database's wire size divided by P, not this rank's slice.
  const std::uint64_t wire_bytes_per_rank =
      db.WireBytes(TransactionDatabase::Slice{0, db.size()}) /
      static_cast<std::uint64_t>(p);

  {
    obs::ScopedSpan pass_span(obs::SpanKind::kPass, /*pass_k=*/1, -1,
                              nullptr);
    WallTimer timer;
    PassMetrics m;
    const CommFaultStats faults_at_start = comm.MyFaultStats();
    ItemsetCollection f1 = ParallelPass1(db, slice, comm, minsup, &m,
                                         &config, &dhp_buckets);
    parallel_internal::RecordFaultDelta(comm, faults_at_start, &m);
    m.wall_seconds = timer.Seconds();
    obs::EmitPassMetrics(m);
    out.passes.push_back(m);
    out.frequent.levels.push_back(std::move(f1));
  }

  for (int k = 2; config.apriori.max_k == 0 || k <= config.apriori.max_k;
       ++k) {
    const ItemsetCollection& prev = out.frequent.levels.back();
    if (prev.size() < 2) break;
    config.apriori.cancel.Checkpoint(rank);
    obs::ScopedSpan pass_span(obs::SpanKind::kPass, k, -1, nullptr);
    WallTimer timer;
    PassMetrics m;
    m.k = k;
    m.local_db_wire_bytes = db.WireBytes(slice);
    const CommFaultStats faults_at_start = comm.MyFaultStats();

    ItemsetCollection candidates =
        parallel_internal::GenerateCandidates(prev, k, dhp_buckets, minsup);
    if (candidates.empty()) {
      pass_span.Cancel();  // no PassMetrics row, so no pass span either
      break;
    }
    m.num_candidates_global = candidates.size();

    // Dynamic grid configuration (Table II), unless pinned by the caller.
    // With adaptive_balance, a calibrated LoadModel overrides the static
    // threshold heuristic using the measured compute/comm ratio; until the
    // first hash-tree pass calibrates it, the static choice stands.
    int rows;
    if (config.hd_forced_rows > 0) {
      rows = p;
      for (int g = config.hd_forced_rows; g <= p; ++g) {
        if (p % g == 0) {
          rows = g;
          break;
        }
      }
    } else {
      rows = ChooseGridRows(candidates.size(), config.hd_threshold_m, p);
      if (adaptive) {
        rows = model.ChooseGridRows(
            candidates.size(),
            static_cast<std::uint64_t>(db.size()) /
                static_cast<std::uint64_t>(p),
            wire_bytes_per_rank, p, rows);
      }
    }
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
    // Measured weights kick in once the model is calibrated.
    const std::vector<std::uint64_t> item_costs =
        adaptive_weights ? model.ItemCosts(candidates)
                         : std::vector<std::uint64_t>();
    CandidatePartition partition = PartitionByPrefix(
        candidates, db.NumItems(), rows, config.prefix_strategy,
        config.split_heavy_prefixes,
        item_costs.empty() ? nullptr : &item_costs);
    m.partition_digest = PartitionDigest(partition);
    if (!item_costs.empty()) {
      const CandidatePartition static_partition = PartitionByPrefix(
          candidates, db.NumItems(), rows, config.prefix_strategy,
          config.split_heavy_prefixes);
      m.rebalanced_candidates = PartitionMoves(static_partition, partition);
    }
    std::vector<std::uint32_t> my_ids =
        partition.ids_per_part[static_cast<std::size_t>(my_row)];
    m.num_candidates_local = my_ids.size();
    m.threads_per_rank = pool.num_threads();

    // Pass-2 triangle: the column ring delivers the column's G * N/P
    // transactions, so the local triangle holds this column's partial
    // counts; the step-2 row reduction below completes the owned share.
    const bool triangle = parallel_internal::TriangleEligible(
        k, config.apriori, prev.size());
    std::optional<TrianglePairCounter> tri;
    std::optional<TriangleTeam> tri_team;
    std::optional<HashTree> tree;
    std::optional<TeamCounter> tree_team;
    std::vector<Count> counts(candidates.size(), 0);
    // Kernel-side per-first-item work attribution, the adaptive
    // balancer's measurement (empty span = attribution off, zero kernel
    // overhead).
    std::vector<std::uint64_t> item_work;
    std::vector<std::uint64_t> leaf_visits;
    if (adaptive && !triangle) {
      item_work.assign(db.NumItems(), 0);
    }
    if (triangle) {
      tri.emplace(prev);
      tri_team.emplace(&pool, &*tri, &m.subset, &config.apriori.cancel);
    } else {
      obs::ScopedSpan build_span(obs::SpanKind::kTreeBuild);
      // Adaptive balancing needs identity root dispatch to keep the
      // per-first-item attribution exact (no co-bucket cross-charging);
      // counts are shape-independent, so output is byte-identical either
      // way.
      HashTreeConfig tree_config = config.apriori.tree;
      if (adaptive) tree_config.identity_root = true;
      tree.emplace(candidates, my_ids, tree_config);
      m.tree_build_inserts = tree->build_inserts();
      build_span.End();
      const Bitmap* filter =
          config.idd_use_bitmap
              ? &partition.first_item_filter[static_cast<std::size_t>(my_row)]
              : nullptr;
      if (!item_work.empty()) leaf_visits.assign(tree->num_leaves(), 0);
      tree_team.emplace(&pool, &*tree, std::span<Count>(counts), &m.subset,
                        filter, &config.apriori.cancel,
                        std::span<std::uint64_t>(item_work),
                        std::span<std::uint64_t>(leaf_visits));
    }

    // Step 1: IDD within the column — each rank sees the G * N/P
    // transactions of its column.
    std::int64_t page_index = 0;
    auto process = [&](PageView page) {
      obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, page_index++);
      m.transactions_processed +=
          triangle ? tri_team->CountPage(page) : tree_team->CountPage(page);
    };
    const std::vector<Page> local_pages =
        Paginate(db, slice, config.page_bytes);
    m.data_bytes_sent += RingShiftAll(col_comm, local_pages, process,
                                      &m.data_messages_sent);
    if (triangle) {
      tri_team->Finish();
      AccumulateShardWork(m.shard_subset_work, tri_team->shard_work());
      tri->Extract(candidates, std::span<Count>(counts));
    } else {
      tree_team->Finish();
      AccumulateShardWork(m.shard_subset_work, tree_team->shard_work());
    }

    // Adaptive feedback: reduce the measured per-first-item subset work
    // over the full grid (each row's items are counted once per column;
    // the union of the columns' rings covers the whole database exactly
    // once, so the sums are the items' true global work). Triangle passes
    // have no hash tree and hence no per-item attribution, so they are
    // skipped.
    if (adaptive && !triangle) {
      LoadModel::PassFeedback feedback;
      feedback.first_items = LoadModel::DistinctFirstItems(candidates);
      feedback.item_candidates.assign(feedback.first_items.size(), 0);
      std::vector<std::uint64_t> compact(feedback.first_items.size(), 0);
      for (std::size_t i = 0; i < feedback.first_items.size(); ++i) {
        const auto f = static_cast<std::size_t>(feedback.first_items[i]);
        compact[i] = item_work[f];
      }
      for (std::size_t i = 0, run = 0; i < candidates.size(); ++i) {
        while (feedback.first_items[run] != candidates.Get(i)[0]) ++run;
        ++feedback.item_candidates[run];
      }
      const parallel_internal::BalanceSync sync =
          parallel_internal::ShareBalanceFeedback(comm, m, compact);
      m.balance_sync_words = sync.words;
      m.reduction_words += sync.words;
      feedback.part_work.assign(static_cast<std::size_t>(rows), 0);
      for (int r = 0; r < p; ++r) {
        feedback.part_work[static_cast<std::size_t>(r / cols)] +=
            sync.rank_work[static_cast<std::size_t>(r)];
      }
      feedback.item_work = sync.item_work;
      feedback.transactions = sync.transactions;
      feedback.traversal_steps = sync.traversal_steps;
      feedback.leaf_checks = sync.leaf_checks;
      feedback.num_candidates = candidates.size();
      feedback.grid_rows = rows;
      feedback.tree_pass = true;
      model.Observe(feedback);
    }

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
    candidates.counts() = std::move(counts);
    ItemsetCollection local_frequent =
        FrequentSubset(candidates, my_ids, minsup);
    ItemsetCollection frequent =
        ExchangeFrequent(col_comm, local_frequent, &m.broadcast_words);
    m.num_frequent_global = frequent.size();
    parallel_internal::RecordFaultDelta(comm, faults_at_start, &m);
    m.wall_seconds = timer.Seconds();
    obs::EmitPassMetrics(m);
    out.passes.push_back(m);
    if (frequent.empty()) break;
    out.frequent.levels.push_back(std::move(frequent));
  }

  while (!out.frequent.levels.empty() && out.frequent.levels.back().empty()) {
    out.frequent.levels.pop_back();
  }
  return out;
}

}  // namespace pam
