#ifndef PAM_CORE_ITEMSET_COLLECTION_H_
#define PAM_CORE_ITEMSET_COLLECTION_H_

#include <cstdint>
#include <vector>

#include "pam/util/types.h"

namespace pam {

/// A flat, cache-friendly collection of fixed-arity itemsets with one
/// support counter per itemset. Used for candidate sets C_k and frequent
/// sets F_k: storing k*|C| items contiguously instead of |C| separate
/// vectors keeps pass-k memory proportional to the paper's M and makes
/// serialization across the message-passing layer trivial.
class ItemsetCollection {
 public:
  /// Creates an empty collection of k-itemsets. k must be >= 1.
  explicit ItemsetCollection(int k);

  /// Takes over flat arrays: k items per itemset, each itemset sorted
  /// ascending, and one count per itemset.
  ItemsetCollection(int k, std::vector<Item> items, std::vector<Count> counts);

  int k() const { return k_; }
  std::size_t size() const { return counts_.size(); }
  bool empty() const { return counts_.empty(); }

  /// Appends an itemset with count 0. `items.size()` must equal k and items
  /// must be sorted ascending.
  void Add(ItemSpan items);

  /// Appends an itemset with an explicit count.
  void AddWithCount(ItemSpan items, Count count);

  /// Items of itemset `i`.
  ItemSpan Get(std::size_t i) const {
    return ItemSpan(items_.data() + static_cast<std::size_t>(k_) * i,
                    static_cast<std::size_t>(k_));
  }

  Count count(std::size_t i) const { return counts_[i]; }
  void set_count(std::size_t i, Count c) { counts_[i] = c; }
  void add_count(std::size_t i, Count delta) { counts_[i] += delta; }

  /// All itemsets' items, k per itemset, in itemset order.
  const std::vector<Item>& items() const { return items_; }

  /// Mutable access to all counts (used by global reductions).
  std::vector<Count>& counts() { return counts_; }
  const std::vector<Count>& counts() const { return counts_; }

  /// Sorts itemsets lexicographically, permuting counts along. apriori_gen
  /// requires its input F_{k-1} in lexicographic order.
  void SortLexicographic();

  /// Returns true if itemsets are in strictly increasing lexicographic
  /// order (i.e., sorted and duplicate-free).
  bool IsSortedUnique() const;

  /// Keeps only itemsets with count >= minsup (the F_k = {c in C_k |
  /// c.count >= minsup} pruning step), preserving order. The capacity C_k
  /// needed stays; ShrinkToFit releases it.
  void PruneBelow(Count minsup);

  /// Releases capacity beyond size(). A run calls it once on every F_k it
  /// returns, because F_k outlives the run (in reports and in the serving
  /// result cache) while the passes' own buffers come and go.
  void ShrinkToFit();

  /// Bytes the two arrays hold, capacity included.
  std::size_t ResidentBytes() const {
    return items_.capacity() * sizeof(Item) +
           counts_.capacity() * sizeof(Count);
  }

  /// Index of `items` via binary search, or npos. Requires IsSortedUnique().
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t Find(ItemSpan items) const;

  /// Serialization for the message-passing layer: k, size, items, counts
  /// flattened into u64 words.
  std::vector<std::uint64_t> Serialize() const;
  static ItemsetCollection Deserialize(const std::uint64_t* data,
                                       std::size_t num_words);

 private:
  int k_;
  std::vector<Item> items_;   // k_ * size() entries
  std::vector<Count> counts_;
};

}  // namespace pam

#endif  // PAM_CORE_ITEMSET_COLLECTION_H_
