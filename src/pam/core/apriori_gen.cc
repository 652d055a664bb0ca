#include "pam/core/apriori_gen.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace pam {

std::vector<Count> CountItems(const TransactionDatabase& db,
                              TransactionDatabase::Slice slice,
                              std::size_t num_items) {
  const std::size_t n = std::max(num_items, db.NumItems());
  std::vector<Count> counts(n, 0);
  // Pass 1 counts occurrences, not transactions: the slice's items are one
  // contiguous CSR range, counted in one flat loop.
  const Item* items = db.items().data();
  const std::size_t end = db.offsets()[slice.end];
  for (std::size_t i = db.offsets()[slice.begin]; i < end; ++i) {
    ++counts[items[i]];
  }
  return counts;
}

ItemsetCollection MakeF1(const std::vector<Count>& item_counts,
                         Count minsup) {
  ItemsetCollection f1(1);
  for (Item x = 0; x < item_counts.size(); ++x) {
    if (item_counts[x] >= minsup) {
      f1.AddWithCount(ItemSpan(&x, 1), item_counts[x]);
    }
  }
  return f1;
}

std::vector<Count> CountPairBuckets(const TransactionDatabase& db,
                                    TransactionDatabase::Slice slice,
                                    std::size_t num_buckets) {
  assert(num_buckets > 0);
  std::vector<Count> buckets(num_buckets, 0);
  Item pair[2];
  for (std::size_t t = slice.begin; t < slice.end; ++t) {
    ItemSpan tx = db.Transaction(t);
    for (std::size_t i = 0; i < tx.size(); ++i) {
      for (std::size_t j = i + 1; j < tx.size(); ++j) {
        pair[0] = tx[i];
        pair[1] = tx[j];
        ++buckets[HashItemset(ItemSpan(pair, 2)) % num_buckets];
      }
    }
  }
  return buckets;
}

ItemsetCollection FilterByBuckets(const ItemsetCollection& c2,
                                  const std::vector<Count>& buckets,
                                  Count minsup) {
  assert(c2.k() == 2);
  assert(!buckets.empty());
  ItemsetCollection kept(2);
  for (std::size_t i = 0; i < c2.size(); ++i) {
    ItemSpan s = c2.Get(i);
    if (buckets[HashItemset(s) % buckets.size()] >= minsup) {
      kept.AddWithCount(s, c2.count(i));
    }
  }
  return kept;
}

ItemsetCollection AprioriGen(const ItemsetCollection& frequent) {
  assert(frequent.IsSortedUnique());
  ItemsetCollection candidates(frequent.k() + 1);
  if (frequent.size() < 2) return candidates;
  // Joining 1-itemsets prunes nothing, so C_2 needs no index.
  std::optional<ItemsetIndex> index;
  if (frequent.k() >= 2) index.emplace(frequent);
  std::vector<Item> scratch;
  JoinAndPrune(
      frequent.items(), frequent.k(), scratch,
      [&](ItemSpan subset) {
        return index->Find(subset) != ItemsetCollection::npos;
      },
      [&](ItemSpan candidate) { candidates.Add(candidate); });
  assert(candidates.IsSortedUnique());
  return candidates;
}

}  // namespace pam
