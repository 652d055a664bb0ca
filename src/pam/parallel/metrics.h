#ifndef PAM_PARALLEL_METRICS_H_
#define PAM_PARALLEL_METRICS_H_

#include <cstdint>
#include <vector>

#include "pam/hashtree/hash_tree.h"
#include "pam/util/stats.h"

namespace pam {

/// Exact per-rank, per-pass work and traffic counters. These are the
/// quantities of the paper's Section IV analysis; the cost model converts
/// them into response times for the target machine (T3E / SP2), and the
/// figure benches aggregate them directly (e.g., Figure 11 plots
/// subset.AvgLeafVisitsPerTransaction()).
struct PassMetrics {
  int k = 0;

  /// |C_k| globally, and the number of candidates in this rank's tree.
  std::size_t num_candidates_global = 0;
  std::size_t num_candidates_local = 0;
  std::size_t num_frequent_global = 0;

  /// Hash tree construction inserts performed by this rank (the O(M) /
  /// O(M/P) / O(M/G) term).
  std::uint64_t tree_build_inserts = 0;

  /// Subset-function work over every transaction this rank processed.
  SubsetStats subset;

  /// Transactions this rank pushed through its tree this pass
  /// (N/P for CD, N for DD/IDD, G*N/P for HD).
  std::uint64_t transactions_processed = 0;

  /// Bytes of transaction data this rank sent (DD all-to-all, IDD/HD ring).
  std::uint64_t data_bytes_sent = 0;
  std::uint64_t data_messages_sent = 0;

  /// Elements this rank contributed to count reductions (M for CD,
  /// M/G for HD rows, 0 for DD/IDD).
  std::uint64_t reduction_words = 0;

  /// Serialized words exchanged in the frequent-itemset all-to-all
  /// broadcast.
  std::uint64_t broadcast_words = 0;

  /// Database scans this pass (> 1 only for memory-capped CD, Figure 12).
  std::size_t db_scans = 1;

  /// Wire bytes of this rank's local database slice; the cost model charges
  /// db_scans * local_db_wire_bytes of disk traffic on machines with a
  /// finite I/O rate (Figure 12's SP2 runs).
  std::uint64_t local_db_wire_bytes = 0;

  /// Transport fault activity this pass (non-zero only under fault
  /// injection): faults the schedule applied to this rank's sends, extra
  /// delivery attempts, and bad envelopes this rank's receives discarded.
  /// bench_robustness reports these as recovery overhead.
  std::uint64_t comm_faults_injected = 0;
  std::uint64_t comm_retries = 0;
  std::uint64_t comm_faults_detected = 0;

  /// HD grid configuration used this pass (rows = G); 1x1 for serial-like
  /// settings, 1xP for CD, Px1 for IDD.
  int grid_rows = 1;
  int grid_cols = 1;

  /// Fingerprint of this pass's candidate-to-part assignment (0 when the
  /// pass used no prefix partition); it is identical on every rank and
  /// invariant under recoverable transport faults — the chaos suite pins
  /// partition determinism on it.
  std::uint64_t partition_digest = 0;

  /// Intra-rank counting team shape this pass (DESIGN.md §11): configured
  /// team size, and the subset work (traversal steps + candidates checked)
  /// each shard performed, in shard order. shard_subset_work is empty when
  /// the team was inactive (threads_per_rank == 1 or nothing counted).
  int threads_per_rank = 1;
  std::vector<std::uint64_t> shard_subset_work;

  /// Local wall-clock (informational only; figures use the cost model).
  double wall_seconds = 0.0;

  friend bool operator==(const PassMetrics&, const PassMetrics&) = default;
};

/// Metrics for a whole run: per_pass[p][r] is pass p (0-based; pass k =
/// p + 1) on rank r.
struct RunMetrics {
  std::vector<std::vector<PassMetrics>> per_pass;

  int num_passes() const { return static_cast<int>(per_pass.size()); }
  int num_ranks() const {
    return per_pass.empty() ? 0 : static_cast<int>(per_pass[0].size());
  }

  /// Balance of subset-function work (traversal + checking) across ranks in
  /// one pass — the paper's computation-time load imbalance.
  LoadSummary SubsetWorkBalance(int pass_index) const;

  /// Sum of a field over ranks in one pass.
  std::uint64_t TotalDataBytes(int pass_index) const;
  std::uint64_t TotalLeafVisits(int pass_index) const;
  std::uint64_t TotalTransactionsProcessed(int pass_index) const;

  /// Aggregate transport fault activity over every pass and rank.
  std::uint64_t TotalFaultsInjected() const;
  std::uint64_t TotalCommRetries() const;
  std::uint64_t TotalFaultsDetected() const;

  /// Aggregated subset stats across all ranks of one pass.
  SubsetStats PassSubsetStats(int pass_index) const;
};

}  // namespace pam

#endif  // PAM_PARALLEL_METRICS_H_
