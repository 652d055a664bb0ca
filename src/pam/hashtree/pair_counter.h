#ifndef PAM_HASHTREE_PAIR_COUNTER_H_
#define PAM_HASHTREE_PAIR_COUNTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/util/types.h"

namespace pam {

/// Specialized pass-2 counting kernel: a flat triangular count array over
/// F_1 ranks that replaces the candidate hash tree for k = 2, the pass the
/// paper's Table II shows dominating candidate volume. Because C_2 =
/// apriori_gen(F_1) is (a subset of, after DHP filtering) all pairs of
/// frequent items, every candidate maps to a unique (rank_a, rank_b) cell;
/// counting a transaction is one pass collecting the ranks of its frequent
/// items followed by a dense double loop — no hashing, no tree traversal,
/// no pointer chasing.
///
/// The result is bit-identical to hash-tree counting (it is exact pair
/// counting, not an approximation); only the SubsetStats work profile
/// differs, which is why the AprioriConfig::use_pass2_triangle flag exists
/// for the paper's Section IV instrumentation runs.
class TrianglePairCounter {
 public:
  /// Builds the item -> F_1-rank map. `f1` must be the frequent
  /// 1-itemsets, sorted (rank == position in the collection).
  explicit TrianglePairCounter(const ItemsetCollection& f1);

  /// Number of triangular counters needed for |F_1| frequent items.
  static std::size_t CellsFor(std::size_t f1_size) {
    return f1_size < 2 ? 0 : f1_size * (f1_size - 1) / 2;
  }

  /// True when the triangle path may replace hash-tree counting: the
  /// counter array must respect the candidate-memory cap the hash tree
  /// would otherwise be chunked under (cap == 0 means unlimited).
  static bool Fits(std::size_t f1_size,
                   std::size_t max_candidates_in_memory) {
    return f1_size >= 2 && (max_candidates_in_memory == 0 ||
                            CellsFor(f1_size) <= max_candidates_in_memory);
  }

  /// Counts every pair of frequent items of `transaction`. Mirrors one
  /// HashTree::Subset call for the stats that remain meaningful without a
  /// tree: `transactions` always increments and `leaf_candidates_checked`
  /// counts the pair cells touched; the traversal/leaf-visit counters stay
  /// zero (there is no tree — disable the triangle path to reproduce the
  /// paper's Figure 11/12 traversal instrumentation). `stats` may be null.
  void AddTransaction(ItemSpan transaction, SubsetStats* stats);

  /// A per-worker shard of the counting team: the same kernel accumulating
  /// into a private triangle, merged into the parent with MergeShard().
  /// The parent must outlive and not be mutated under its shards; shards
  /// on distinct threads never share state.
  class Shard {
   public:
    explicit Shard(const TrianglePairCounter& parent)
        : parent_(&parent), tri_(parent.tri_.size(), 0) {}

    void AddTransaction(ItemSpan transaction, SubsetStats* stats) {
      parent_->CountInto(transaction, stats, tri_.data(), ranks_);
    }

   private:
    friend class TrianglePairCounter;
    const TrianglePairCounter* parent_;
    std::vector<Count> tri_;
    std::vector<std::uint32_t> ranks_;  // per-transaction rank buffer
  };

  /// Adds a shard's triangle into this counter. Call once per shard, in
  /// fixed shard order, after the team has joined.
  void MergeShard(const Shard& shard);

  /// Scatters the triangle into `counts` (indexed by candidate position in
  /// `c2`). Every candidate of `c2` must be a pair of frequent items —
  /// true for apriori_gen(F_1) output, DHP-filtered or not. The miners
  /// read F_2 off cells() instead and generate no C_2.
  void Extract(const ItemsetCollection& c2, std::span<Count> counts) const;

  /// The triangle's R(R-1)/2 cells in row order: the cell of ranks a < b
  /// precedes that of a' < b' iff (a, b) < (a', b'), which is C_2's
  /// lexicographic order because F_1 is sorted. Writable, so a pass can
  /// reduce the counts in place.
  std::span<Count> cells() { return tri_; }

  std::size_t num_cells() const { return tri_.size(); }

 private:
  static constexpr std::uint32_t kNotFrequent = 0xffffffffu;

  // Cell of the pair with ranks ri < rj: row ri starts at
  // ri * (2R - ri - 1) / 2 and holds columns ri+1 .. R-1.
  std::size_t Index(std::size_t ri, std::size_t rj) const {
    return ri * (2 * r_ - ri - 1) / 2 + (rj - ri - 1);
  }

  // Collects the F_1 ranks of the transaction's frequent items into
  // `ranks` (ascending, because transactions and F_1 are both sorted) and
  // returns how many. `ranks` is grown to at least transaction.size(),
  // one slot per item: the loop stores every in-range item's rank before
  // it knows whether to keep it.
  std::size_t CollectRanks(ItemSpan transaction,
                           std::vector<std::uint32_t>& ranks) const;

  // The shared kernel behind AddTransaction and Shard::AddTransaction:
  // counts into the caller-supplied triangle using the caller's rank
  // buffer. Touches no mutable state of *this.
  void CountInto(ItemSpan transaction, SubsetStats* stats, Count* tri,
                 std::vector<std::uint32_t>& ranks) const;

  std::size_t r_ = 0;                 // |F_1|
  std::vector<std::uint32_t> rank_;   // item -> rank, kNotFrequent if absent
  std::vector<Count> tri_;            // R * (R-1) / 2 cells
  std::vector<std::uint32_t> scratch_;  // per-transaction rank buffer
};

}  // namespace pam

#endif  // PAM_HASHTREE_PAIR_COUNTER_H_
