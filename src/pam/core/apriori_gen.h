#ifndef PAM_CORE_APRIORI_GEN_H_
#define PAM_CORE_APRIORI_GEN_H_

#include <algorithm>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/tdb/database.h"

namespace pam {

/// Counts how often each item id occurs across the transactions in `slice`.
/// The result has `db.NumItems()` entries (or `num_items` if larger, so the
/// parallel algorithms can size the array consistently across ranks whose
/// local slices may not contain the globally largest item).
std::vector<Count> CountItems(const TransactionDatabase& db,
                              TransactionDatabase::Slice slice,
                              std::size_t num_items = 0);

/// Builds F_1 from per-item counts: all items with count >= minsup, in item
/// order (which is lexicographic order for 1-itemsets).
ItemsetCollection MakeF1(const std::vector<Count>& item_counts, Count minsup);

/// DHP pair-bucket counting: hashes every 2-subset of every transaction in
/// `slice` into `num_buckets` counters (via HashItemset % num_buckets).
/// A pair's bucket count always upper-bounds its true support, so C_2
/// candidates in light buckets can be pruned safely.
std::vector<Count> CountPairBuckets(const TransactionDatabase& db,
                                    TransactionDatabase::Slice slice,
                                    std::size_t num_buckets);

/// Drops the candidates of `c2` (k must be 2) whose DHP bucket count is
/// below `minsup`. Returns the filtered collection (order preserved).
ItemsetCollection FilterByBuckets(const ItemsetCollection& c2,
                                  const std::vector<Count>& buckets,
                                  Count minsup);

/// The apriori_gen(F_{k-1}) candidate generation of the paper's Figure 1:
/// joins pairs of frequent (k-1)-itemsets sharing their first k-2 items and
/// prunes any candidate with an infrequent (k-1)-subset. `frequent` must be
/// sorted lexicographically (IsSortedUnique()); the result is sorted. The
/// prune probes an ItemsetIndex over `frequent`, built when k >= 3.
ItemsetCollection AprioriGen(const ItemsetCollection& frequent);

/// apriori_gen's join and prune over flat storage, the one copy that
/// AprioriGen and rule generation's consequent growth share. `sets` holds
/// (k-1)-itemsets of `k_prev` items each in strictly increasing
/// lexicographic order. Every pair sharing its first k_prev - 1 items is
/// joined into a k-itemset, in lexicographic order, and passed to
/// `emit(ItemSpan)` when `contains(ItemSpan)` holds for each of its
/// (k-1)-subsets; the two that are the joined pair are not tested. The
/// span `emit` sees lives in `scratch`, which is resized to 2k - 1 items,
/// so a caller that joins repeatedly allocates once.
template <typename Contains, typename Emit>
void JoinAndPrune(ItemSpan sets, int k_prev, std::vector<Item>& scratch,
                  Contains&& contains, Emit&& emit) {
  const std::size_t kp = static_cast<std::size_t>(k_prev);
  const std::size_t k = kp + 1;
  const std::size_t n = sets.size() / kp;
  scratch.resize(2 * k - 1);
  Item* joined = scratch.data();
  Item* subset = joined + k;
  const auto set = [&](std::size_t i) { return sets.data() + i * kp; };
  // Lexicographic order puts the itemsets sharing their first k - 2 items
  // in one contiguous block; only pairs within a block join.
  std::size_t block_begin = 0;
  while (block_begin < n) {
    const Item* first = set(block_begin);
    std::size_t block_end = block_begin + 1;
    while (block_end < n && std::equal(first, first + kp - 1, set(block_end))) {
      ++block_end;
    }
    for (std::size_t a = block_begin; a < block_end; ++a) {
      std::copy_n(set(a), kp, joined);
      for (std::size_t b = a + 1; b < block_end; ++b) {
        // b follows a with an equal prefix, so its last item is larger and
        // `joined` stays sorted.
        joined[kp] = set(b)[kp - 1];
        // Subset `drop` is `joined` without item `drop`; each differs from
        // the one before in position drop - 1 only. Dropping either of the
        // last two items gives b or a.
        bool keep = true;
        for (std::size_t drop = 0; keep && drop + 2 < k; ++drop) {
          if (drop == 0) {
            std::copy(joined + 1, joined + k, subset);
          } else {
            subset[drop - 1] = joined[drop - 1];
          }
          keep = contains(ItemSpan(subset, kp));
        }
        if (keep) emit(ItemSpan(joined, k));
      }
    }
    block_begin = block_end;
  }
}

}  // namespace pam

#endif  // PAM_CORE_APRIORI_GEN_H_
