#ifndef PAM_PARALLEL_LOAD_MODEL_H_
#define PAM_PARALLEL_LOAD_MODEL_H_

#include <cstdint>
#include <vector>

#include "pam/core/candidate_partition.h"
#include "pam/core/itemset_collection.h"

namespace pam {

/// Feedback-driven load model for the adaptive balancer (DESIGN.md §14).
///
/// Folds each completed pass's measured per-first-item subset work into
/// per-item cost densities (used by IDD/HD to re-run the candidate
/// bin-packer with measured weights instead of candidate counts) and into
/// a calibrated compute/comm model (used by HD to choose its grid rows G
/// per pass instead of the static Table-II heuristic).
///
/// The density signal is measured, not modeled: the counting kernel
/// attributes every traversal step and leaf check to the root item the
/// descent started from (HashTree::Subset's item_work span), so after one
/// AllReduceSum each rank knows exactly how much work the candidates of
/// every first item cost this pass. The model stores the scale-free
/// per-candidate density of each first item (work per candidate relative
/// to the pass mean, EMA-smoothed across passes) and hands the packer
/// fixed-point weights specialized to the next pass's candidate counts.
/// Until the first hash-tree pass produces a measurement the model offers
/// no weights and callers fall back to the static candidate-count
/// partition — adaptive mode is never worse than static before any
/// measurement exists.
///
/// Every input is a deterministic work counter (traversal steps, leaf
/// candidate checks, transactions) shared across ranks via one small
/// AllReduceSum — never wall time, which is nondeterministic. All ranks
/// therefore hold identical models and recompute identical scheduling
/// decisions with no decision broadcast; PassMetrics::partition_digest
/// pins this invariant in the chaos suite.
class LoadModel {
 public:
  /// Fixed-point scale of the per-item cost densities handed to
  /// PartitionByPrefix: kCostScale means "a candidate with this first item
  /// costs the average amount".
  static constexpr std::uint64_t kCostScale = 1024;
  /// Densities are clamped to [kCostScale / kMaxSkew, kCostScale * kMaxSkew]
  /// so one noisy pass can never starve a part or overflow a weight.
  static constexpr std::uint64_t kMaxSkew = 64;

  explicit LoadModel(std::size_t num_items);

  /// The distinct first items of `candidates`, ascending (candidates are
  /// sorted lexicographically, so this is one linear scan). This is the
  /// compact wire layout of per-item work: every rank derives the same
  /// list from the same candidate set, so a vector indexed by it needs no
  /// item ids on the wire.
  static std::vector<Item> DistinctFirstItems(
      const ItemsetCollection& candidates);

  /// Globally-reduced counters of one completed counting pass. Identical
  /// on every rank (see parallel_internal::ObserveBalance).
  struct PassFeedback {
    /// Measured subset work (traversal steps + leaf candidate checks) per
    /// candidate-partition part: per rank for IDD, summed per grid row for
    /// HD.
    std::vector<std::uint64_t> part_work;
    /// The pass's distinct candidate first items (DistinctFirstItems) and,
    /// in the same layout, the globally-summed measured work and candidate
    /// count of each first item.
    std::vector<Item> first_items;
    std::vector<std::uint64_t> item_work;
    std::vector<std::uint32_t> item_candidates;
    std::uint64_t transactions = 0;     // global transaction visits
    std::uint64_t traversal_steps = 0;  // global
    std::uint64_t leaf_checks = 0;      // global
    std::size_t num_candidates = 0;     // |C_k|
    int grid_rows = 1;                  // parts the pass counted with
  };

  /// Folds one completed pass into the model: updates each first item's
  /// relative per-candidate density (equal-blend EMA of measured work per
  /// candidate over the pass mean) and calibrates the grid policy.
  void Observe(const PassFeedback& feedback);

  /// Fixed-point per-item costs for PartitionByPrefix's item_cost input,
  /// specialized to this pass's candidate set: cost_f = the stored density
  /// of f normalized so the mean candidate of `candidates` costs
  /// kCostScale (items never measured count as average). Empty until the
  /// first Observe() — callers then use the static partition.
  std::vector<std::uint64_t> ItemCosts(
      const ItemsetCollection& candidates) const;

  /// True once a hash-tree pass has calibrated the model.
  bool HasCalibration() const { return calibrated_; }

  /// Stored relative density of one first item (1.0 = average candidate,
  /// 0 until that item has been measured). Exposed for tests and bench
  /// reporting.
  double DensityOf(Item item) const;

  /// HD dynamic grid rows: picks the divisor G of num_ranks minimizing
  ///   G * txns_per_rank * per_visit(M/G)   (ring counting, G tree visits)
  /// + kWorkPerCommByte * (G-1) * wire_bytes_per_rank   (ring forwarding)
  /// + kWorkPerTreeInsert * M/G                         (tree build)
  /// + kWorkPerReduceWord * M/G  when cols > 1          (row reduction)
  /// where per_visit scales the calibrated work split by local tree size.
  /// Returns `fallback` (the static Table-II choice) until calibrated.
  int ChooseGridRows(std::size_t num_candidates,
                     std::uint64_t transactions_per_rank,
                     std::uint64_t wire_bytes_per_rank, int num_ranks,
                     int fallback) const;

  /// Relative exchange-rate constants between one byte/word of
  /// communication or tree build and one unit of subset work. Coarse by
  /// design: G only moves when the measured compute/comm ratio shifts by
  /// integer factors, which is the paper's own granularity (Table II).
  static constexpr double kWorkPerCommByte = 4.0;
  static constexpr double kWorkPerTreeInsert = 32.0;
  static constexpr double kWorkPerReduceWord = 16.0;

 private:
  // Relative per-candidate density per item id; 0 = never measured.
  std::vector<double> density_;
  bool calibrated_ = false;
  double work_per_txn_visit_ = 0.0;   // subset work per (txn, tree) visit
  double size_sensitive_frac_ = 0.0;  // leaf-check share of subset work
  double cal_candidates_local_ = 1.0;  // M/G at calibration time
};

}  // namespace pam

#endif  // PAM_PARALLEL_LOAD_MODEL_H_
