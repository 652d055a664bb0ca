#include <optional>

#include "pam/core/apriori_gen.h"
#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"
#include "pam/parallel/load_model.h"
#include "pam/util/timer.h"

namespace pam {

// Intelligent Data Distribution (paper Section III-C, Figure 7): candidates
// are partitioned by first item via bin packing, each rank filters the root
// level of the subset function with a bitmap of its owned first-items
// (Figure 8), and the database circulates through the ring pipeline of
// Figure 6 instead of DD's contention-prone all-to-all.
//
// With config.adaptive_balance the partitioner's weights come from a
// LoadModel instead of raw candidate counts: the counting kernel
// attributes its measured subset work to the root item each descent
// started from, and one AllReduceSum per pass gives every rank the exact
// global cost of every first item's candidates (DESIGN.md §14). The ring
// still delivers every transaction to every rank, so the mining output is
// byte-identical either way.
RankOutput RunIddRank(const TransactionDatabase& db, Comm& comm,
                      const ParallelConfig& config) {
  using parallel_internal::ExchangeFrequent;
  using parallel_internal::FrequentSubset;
  using parallel_internal::ParallelPass1;
  using parallel_internal::RingShiftAll;

  RankOutput out;
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
  std::vector<Count> dhp_buckets;  // PDM-style DHP filter state (optional)
  CountingPool pool(config.apriori.threads_per_rank);
  // Measured-weight repartitioning requires the bin-packing strategy; the
  // contiguous ablation stays static even with the flag on.
  const bool adaptive = config.adaptive_balance &&
                        config.prefix_strategy == PrefixStrategy::kBinPacked;
  LoadModel model(db.NumItems());

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
    m.grid_rows = p;
    const CommFaultStats faults_at_start = comm.MyFaultStats();

    // Regenerate C_k locally, then keep only the bin-packed share; the
    // paper's implementation likewise computes the first-item histogram,
    // bin-packs, and regenerates the local partition.
    ItemsetCollection candidates =
        parallel_internal::GenerateCandidates(prev, k, dhp_buckets, minsup);
    if (candidates.empty()) {
      pass_span.Cancel();  // no PassMetrics row, so no pass span either
      break;
    }
    m.num_candidates_global = candidates.size();
    m.threads_per_rank = pool.num_threads();
    // Empty until the first measured hash-tree pass calibrates the model:
    // before that the partition is the static candidate-count one.
    const std::vector<std::uint64_t> item_costs =
        adaptive ? model.ItemCosts(candidates) : std::vector<std::uint64_t>();
    CandidatePartition partition = PartitionByPrefix(
        candidates, db.NumItems(), p, config.prefix_strategy,
        config.split_heavy_prefixes,
        item_costs.empty() ? nullptr : &item_costs);
    m.partition_digest = PartitionDigest(partition);
    if (!item_costs.empty()) {
      // Repartition delta vs the static candidate-count packing the pass
      // would have used without feedback.
      const CandidatePartition static_partition = PartitionByPrefix(
          candidates, db.NumItems(), p, config.prefix_strategy,
          config.split_heavy_prefixes);
      m.rebalanced_candidates = PartitionMoves(static_partition, partition);
    }
    std::vector<std::uint32_t> my_ids =
        partition.ids_per_part[static_cast<std::size_t>(rank)];
    m.num_candidates_local = my_ids.size();

    // Pass-2 triangle: the ring pipeline delivers every transaction to
    // every rank, so counting all F1 pairs locally yields complete counts
    // for the owned prefix partition — no hash tree, no root bitmap.
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
              ? &partition.first_item_filter[static_cast<std::size_t>(rank)]
              : nullptr;
      if (!item_work.empty()) leaf_visits.assign(tree->num_leaves(), 0);
      tree_team.emplace(&pool, &*tree, std::span<Count>(counts), &m.subset,
                        filter, &config.apriori.cancel,
                        std::span<std::uint64_t>(item_work),
                        std::span<std::uint64_t>(leaf_visits));
    }
    std::int64_t page_index = 0;
    auto process = [&](PageView page) {
      obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, page_index++);
      m.transactions_processed +=
          triangle ? tri_team->CountPage(page) : tree_team->CountPage(page);
    };
    const std::vector<Page> local_pages =
        Paginate(db, slice, config.page_bytes);
    m.data_bytes_sent +=
        RingShiftAll(comm, local_pages, process, &m.data_messages_sent);
    if (triangle) {
      tri_team->Finish();
      AccumulateShardWork(m.shard_subset_work, tri_team->shard_work());
      tri->Extract(candidates, std::span<Count>(counts));
    } else {
      tree_team->Finish();
      AccumulateShardWork(m.shard_subset_work, tree_team->shard_work());
    }

    // Feed the measured per-first-item subset work back into the model
    // (one AllReduceSum of P + 3 + |first items| words; every rank folds
    // identical totals, so the next pass's partition is recomputed
    // identically with no decision broadcast). Triangle passes have no
    // hash tree and hence no per-item attribution, so they are skipped.
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
      feedback.part_work = sync.rank_work;
      feedback.item_work = sync.item_work;
      feedback.transactions = sync.transactions;
      feedback.traversal_steps = sync.traversal_steps;
      feedback.leaf_checks = sync.leaf_checks;
      feedback.num_candidates = candidates.size();
      feedback.grid_rows = p;
      feedback.tree_pass = true;
      model.Observe(feedback);
    }

    candidates.counts() = std::move(counts);
    ItemsetCollection local_frequent =
        FrequentSubset(candidates, my_ids, minsup);
    ItemsetCollection frequent =
        ExchangeFrequent(comm, local_frequent, &m.broadcast_words);
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
