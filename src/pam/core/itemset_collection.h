#ifndef PAM_CORE_ITEMSET_COLLECTION_H_
#define PAM_CORE_ITEMSET_COLLECTION_H_

#include <algorithm>
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
  /// A caller that probes one collection many times builds an
  /// ItemsetIndex over it instead.
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

/// Position of `items` among the itemsets stored flat in `sets`
/// (`items.size()` items each, in strictly increasing lexicographic order),
/// by binary search, or ItemsetCollection::npos.
std::size_t FindSorted(ItemSpan sets, ItemSpan items);

/// An open-addressing hash table of positions over one ItemsetCollection,
/// built once and probed many times: apriori_gen's prune, rule
/// generation's antecedent lookups, HPA's owner probe and ExtractMaximal
/// each replace a binary search of the collection per probe with about one
/// slot read and one itemset comparison. The table has at least twice as
/// many slots as itemsets (linear probing, 4 bytes a slot). The collection
/// must hold no itemset twice and must outlive the index unchanged.
class ItemsetIndex {
 public:
  explicit ItemsetIndex(const ItemsetCollection& sets);

  /// Position of `items` in the indexed collection, or
  /// ItemsetCollection::npos (always npos unless `items.size()` is its k).
  std::size_t Find(ItemSpan items) const {
    if (items.size() != static_cast<std::size_t>(sets_->k())) {
      return ItemsetCollection::npos;
    }
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t s = Hash(items) & mask;; s = (s + 1) & mask) {
      const std::uint32_t slot = slots_[s];
      if (slot == 0) return ItemsetCollection::npos;
      const ItemSpan member = sets_->Get(slot - 1);
      if (std::equal(member.begin(), member.end(), items.begin())) {
        return slot - 1;
      }
    }
  }

  /// The hash whose low bits pick an itemset's first slot, and the slot
  /// count (a power of two); public so tests can build colliding probes.
  /// Not HashItemset: its multiplies carry bits only upward, so its low
  /// bits see only the items' low bits; this one folds the high half down.
  static std::uint64_t Hash(ItemSpan items) {
    std::uint64_t h = items.size();
    for (Item x : items) h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
    return h ^ (h >> 32);
  }
  std::size_t num_slots() const { return slots_.size(); }

 private:
  const ItemsetCollection* sets_;
  std::vector<std::uint32_t> slots_;  // position + 1; 0 marks an empty slot
};

}  // namespace pam

#endif  // PAM_CORE_ITEMSET_COLLECTION_H_
