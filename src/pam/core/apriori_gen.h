#ifndef PAM_CORE_APRIORI_GEN_H_
#define PAM_CORE_APRIORI_GEN_H_

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
/// sorted lexicographically (IsSortedUnique()); the result is sorted.
ItemsetCollection AprioriGen(const ItemsetCollection& frequent);

}  // namespace pam

#endif  // PAM_CORE_APRIORI_GEN_H_
