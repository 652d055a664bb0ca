#ifndef PAM_HASHTREE_HASH_TREE_H_
#define PAM_HASHTREE_HASH_TREE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/tdb/database.h"
#include "pam/util/bitmap.h"
#include "pam/util/types.h"

namespace pam {

/// Shape parameters of the candidate hash tree (paper Section II). The
/// paper tunes the branching factor so that the average number of
/// candidates per leaf is S; here both knobs are explicit. The defaults
/// are the shape the figure benches measure (DESIGN.md §7): a wide
/// fanout keeps the distinct depth-k hash paths (fanout^k) well above the
/// candidate count, so leaves stay near capacity instead of chaining. The
/// miners count through the hash tree only with
/// AprioriConfig::use_pass2_triangle off; otherwise their tree passes use
/// the CandidateTrie.
struct HashTreeConfig {
  /// Branching factor of internal nodes, the root's included. Rounded up
  /// to the next power of two at construction so hashing is a bit mask;
  /// items hash as `item & (fanout - 1)`.
  int fanout = 64;
  /// A leaf splits into an internal node when it would exceed this many
  /// candidates (unless its depth already equals k, where chaining is
  /// unavoidable because the hash path is exhausted).
  int leaf_capacity = 8;

  /// The paper's tuning rule: "the desired value of S can be obtained by
  /// adjusting the branching factor". Returns a config whose fanout is
  /// large enough that a tree over `num_candidates` k-itemsets has at
  /// least num_candidates / target_s distinct depth-k hash paths, so the
  /// average leaf holds about `target_s` candidates instead of chaining
  /// (fanout^k >= M / S, fanout a power of two in [4, 1024]). When even
  /// fanout == 1024 cannot reach M / S paths, leaf chaining at depth k is
  /// unavoidable and leaf_capacity is raised to ceil(M / fanout^k) so the
  /// configured capacity matches the achievable occupancy (splitting past
  /// that depth would only add traversal levels, not shrink leaves).
  static HashTreeConfig TunedFor(std::size_t num_candidates, int k,
                                 int target_s);
};

/// Work counters accumulated by Subset(). These are the exact quantities of
/// the paper's Section IV analysis: `traversal_steps` corresponds to the
/// C * t_travers term, `distinct_leaf_visits` to the V_{C,L} * t_check term
/// (Figure 11 plots its per-transaction average for DD vs IDD), and
/// `leaf_candidates_checked` counts candidate-vs-transaction subset tests.
struct SubsetStats {
  std::uint64_t transactions = 0;
  std::uint64_t root_items_considered = 0;
  std::uint64_t root_items_skipped = 0;  // filtered out by the IDD bitmap
  std::uint64_t traversal_steps = 0;
  std::uint64_t distinct_leaf_visits = 0;
  std::uint64_t leaf_candidates_checked = 0;

  void Accumulate(const SubsetStats& other);
  /// Average distinct leaves visited per transaction (the y-axis of
  /// Figure 11).
  double AvgLeafVisitsPerTransaction() const;

  friend bool operator==(const SubsetStats&, const SubsetStats&) = default;
};

/// The candidate hash tree of the Apriori algorithm: internal nodes hash
/// successive itemset items to children, leaves store candidate indices.
/// `Subset(t)` updates the counts of every candidate contained in
/// transaction t by traversing the tree once per viable start item
/// (Figures 2 and 3 of the paper).
///
/// A HashTree holds a subset of the candidates of an ItemsetCollection
/// (possibly all of them); counts are written into an external array
/// indexed by the collection's candidate index, so CD's global reduction
/// and DD/IDD/HD's partitioned counting all reuse the same counting code.
///
/// Construction inserts into a conventional node-based tree; the finished
/// tree is then frozen into a flat structure-of-arrays layout (see
/// DESIGN.md §7, "The hash tree") and the node storage is released. The
/// scratch Subset() never allocates.
///
/// Thread safety: the frozen tree is immutable, but each traversal needs
/// mutable scratch (visit epochs, item stamps, the DFS stack). The
/// one-argument Subset() uses an internal Scratch, made on its first call,
/// and is single-threaded;
/// the intra-rank counting team gives every worker its own MakeScratch()
/// and calls the const overload concurrently on one shared tree.
class HashTree {
 private:
  // Flat child encoding: kAbsent for no child, >= 0 for an internal node
  // id (index into children_ blocks), <= kLeafBase for a leaf (leaf id ==
  // kLeafBase - value).
  static constexpr std::int32_t kAbsent = -1;
  static constexpr std::int32_t kLeafBase = -2;
  struct Frame {
    std::int32_t node;  // internal node id
    std::uint32_t pos;  // next transaction position to hash
  };

 public:
  /// Per-traversal mutable state, factored out of the tree so concurrent
  /// workers can share one frozen tree. Opaque: obtain via MakeScratch(),
  /// pass back to the const Subset() overload.
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class HashTree;
    // Distinct-leaf-visit epoch (64-bit: never wraps in practice).
    std::uint64_t epoch = 0;
    // Item stamp for the O(k) leaf containment check. 32-bit to halve the
    // per-item array (one entry per item id up to the largest candidate
    // item); on wrap the array is cleared and the stamp restarts at 1,
    // preserving exactness.
    std::uint32_t stamp = 0;
    std::vector<std::uint64_t> leaf_epoch;
    std::vector<std::uint32_t> item_stamp;
    std::vector<Frame> stack;  // preallocated DFS stack, depth <= k
  };

  /// Builds a tree over candidates `candidate_ids` of `candidates`.
  /// The collection must outlive the tree.
  HashTree(const ItemsetCollection& candidates,
           std::vector<std::uint32_t> candidate_ids, HashTreeConfig config);

  /// Builds a tree over *all* candidates of the collection.
  HashTree(const ItemsetCollection& candidates, HashTreeConfig config);

  /// Counts the candidates contained in `transaction` into `counts`
  /// (indexed by candidate index in the collection; must have size
  /// `candidates.size()`). If `root_filter` is non-null, transaction items
  /// without their bit set are skipped at the root level — the IDD bitmap
  /// pruning of Figure 8. `stats` may be null.
  void Subset(ItemSpan transaction, std::span<Count> counts,
              SubsetStats* stats, const Bitmap* root_filter = nullptr);

  /// Thread-safe counting against caller-owned scratch: the tree itself is
  /// read-only here, so any number of workers may call this concurrently,
  /// each with its own Scratch and its own counts strip.
  void Subset(ItemSpan transaction, std::span<Count> counts,
              SubsetStats* stats, const Bitmap* root_filter,
              Scratch& scratch) const;

  /// Fresh zeroed scratch sized for this tree.
  Scratch MakeScratch() const;

  /// Number of leaf nodes (the L of the paper's analysis).
  std::size_t num_leaves() const { return num_leaves_; }
  std::size_t num_candidates() const { return num_candidates_; }
  /// Number of candidate insertions performed during construction; the cost
  /// model charges hash tree construction (the O(M) term) per insertion.
  std::uint64_t build_inserts() const { return build_inserts_; }

 private:
  struct Node {
    bool is_leaf = true;
    // For internal nodes: child index per hash bucket, -1 when absent.
    std::vector<std::int32_t> children;
    // For leaves: candidate ids (indices into the collection).
    std::vector<std::uint32_t> leaf_candidates;
  };

  void Insert(std::uint32_t candidate_id);
  void SplitLeaf(std::int32_t node_index, int depth);
  void Freeze();
  template <bool WithStats, bool WithFilter>
  void SubsetFlat(ItemSpan transaction, std::span<Count> counts,
                  SubsetStats* stats, const Bitmap* root_filter,
                  Scratch& scratch) const;
  template <bool WithStats>
  void CheckLeafFlat(std::int32_t leaf, std::span<Count> counts,
                     SubsetStats* stats, Scratch& scratch) const;

  int Hash(Item item) const { return static_cast<int>(item & mask_); }

  const ItemsetCollection& candidates_;
  const int fanout_;       // power of two
  const Item mask_;        // fanout_ - 1
  const int shift_;        // log2(fanout_)
  const int leaf_capacity_;
  const int k_;
  std::vector<Node> nodes_;  // construction only; cleared by Freeze()
  std::size_t num_leaves_ = 0;
  std::size_t num_candidates_ = 0;
  std::uint64_t build_inserts_ = 0;

  // Frozen structure-of-arrays layout. children_ holds one fanout_-sized
  // block per internal node; leaves are a CSR pair
  // (leaf_offsets_, leaf_ids_) plus the candidates' item tuples copied
  // leaf-ordered and row-major (candidate j's k items contiguous) into
  // leaf_items_, so the inner subset check reads contiguous memory.
  std::int32_t root_ref_ = kAbsent;
  std::vector<std::int32_t> children_;
  std::vector<std::uint32_t> leaf_offsets_;
  std::vector<std::uint32_t> leaf_ids_;
  std::vector<Item> leaf_items_;
  std::size_t item_stamp_size_ = 0;  // largest candidate item + 1
  Scratch scratch_;  // backs the single-threaded Subset(), made on first use
};

}  // namespace pam

#endif  // PAM_HASHTREE_HASH_TREE_H_
