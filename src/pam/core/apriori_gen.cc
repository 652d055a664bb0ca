#include "pam/core/apriori_gen.h"

#include <algorithm>
#include <cassert>

namespace pam {

std::vector<Count> CountItems(const TransactionDatabase& db,
                              TransactionDatabase::Slice slice,
                              std::size_t num_items) {
  const std::size_t n = std::max(num_items, db.NumItems());
  std::vector<Count> counts(n, 0);
  for (std::size_t t = slice.begin; t < slice.end; ++t) {
    for (Item x : db.Transaction(t)) ++counts[x];
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
  const int k_prev = frequent.k();
  const int k = k_prev + 1;
  ItemsetCollection candidates(k);
  if (frequent.size() < 2) return candidates;

  std::vector<Item> joined(static_cast<std::size_t>(k));
  std::vector<Item> subset(static_cast<std::size_t>(k_prev));

  // Join step: scan blocks of itemsets that share their first k-2 items
  // (lexicographic order groups them contiguously) and join each pair.
  std::size_t block_begin = 0;
  while (block_begin < frequent.size()) {
    std::size_t block_end = block_begin + 1;
    ItemSpan first = frequent.Get(block_begin);
    while (block_end < frequent.size()) {
      ItemSpan other = frequent.Get(block_end);
      bool same_prefix = true;
      for (int i = 0; i + 1 < k_prev; ++i) {
        if (first[static_cast<std::size_t>(i)] !=
            other[static_cast<std::size_t>(i)]) {
          same_prefix = false;
          break;
        }
      }
      if (!same_prefix) break;
      ++block_end;
    }

    for (std::size_t a = block_begin; a < block_end; ++a) {
      ItemSpan ia = frequent.Get(a);
      for (std::size_t b = a + 1; b < block_end; ++b) {
        ItemSpan ib = frequent.Get(b);
        // joined = ia + last item of ib (kept sorted because ib > ia
        // lexicographically with equal prefix implies ib.last > ia.last).
        std::copy(ia.begin(), ia.end(), joined.begin());
        joined[static_cast<std::size_t>(k_prev)] =
            ib[static_cast<std::size_t>(k_prev - 1)];

        // Prune step: every (k-1)-subset must be frequent. Subsets formed
        // by dropping position d for d in [0, k-2] (dropping the last or
        // second-to-last reproduces ia/ib which are frequent by input).
        bool all_frequent = true;
        for (int drop = 0; drop + 2 < k && all_frequent; ++drop) {
          std::size_t out = 0;
          for (int i = 0; i < k; ++i) {
            if (i != drop) {
              subset[out++] = joined[static_cast<std::size_t>(i)];
            }
          }
          all_frequent = frequent.Find(ItemSpan(
                             subset.data(), subset.size())) !=
                         ItemsetCollection::npos;
        }
        if (all_frequent) {
          candidates.Add(ItemSpan(joined.data(), joined.size()));
        }
      }
    }
    block_begin = block_end;
  }
  assert(candidates.IsSortedUnique());
  return candidates;
}

}  // namespace pam
