#include "pam/hashtree/pair_counter.h"

#include <algorithm>
#include <cassert>

namespace pam {

TrianglePairCounter::TrianglePairCounter(const ItemsetCollection& f1)
    : r_(f1.size()) {
  assert(f1.k() == 1);
  Item max_item = 0;
  for (std::size_t i = 0; i < f1.size(); ++i) {
    max_item = std::max(max_item, f1.Get(i)[0]);
  }
  rank_.assign(f1.empty() ? 0 : static_cast<std::size_t>(max_item) + 1,
               kNotFrequent);
  for (std::size_t i = 0; i < f1.size(); ++i) {
    rank_[f1.Get(i)[0]] = static_cast<std::uint32_t>(i);
  }
  tri_.assign(CellsFor(r_), 0);
  scratch_.reserve(64);
}

std::size_t TrianglePairCounter::CollectRanks(
    ItemSpan transaction, std::vector<std::uint32_t>& ranks) const {
  if (ranks.size() < transaction.size()) ranks.resize(transaction.size());
  // No branch on frequency, which is data-dependent and mispredicts:
  // every in-range item's rank is stored, and the cursor advances only
  // past a frequent one, so the next store overwrites an infrequent
  // item's slot. Only items above F_1's largest item take the bound
  // check's branch.
  std::size_t n = 0;
  for (const Item item : transaction) {
    if (static_cast<std::size_t>(item) >= rank_.size()) continue;
    const std::uint32_t r = rank_[item];
    ranks[n] = r;
    n += r != kNotFrequent;
  }
  return n;
}

void TrianglePairCounter::CountInto(ItemSpan transaction, SubsetStats* stats,
                                    Count* tri,
                                    std::vector<std::uint32_t>& ranks) const {
  if (stats != nullptr) ++stats->transactions;
  // Transactions are sorted by item and F_1 is sorted too, so the
  // collected ranks come out ascending — exactly the ri < rj order the
  // triangle indexing needs.
  const std::size_t n = CollectRanks(transaction, ranks);
  if (n < 2) return;
  if (stats != nullptr) {
    stats->leaf_candidates_checked += n * (n - 1) / 2;
  }
  for (std::size_t a = 0; a + 1 < n; ++a) {
    const std::size_t ri = ranks[a];
    // Hoist the row base: cells of row ri are contiguous, so the inner
    // loop is a sequential streak of increments.
    Count* row = tri + ri * (2 * r_ - ri - 1) / 2;
    const std::size_t off = ri + 1;
    for (std::size_t b = a + 1; b < n; ++b) {
      ++row[ranks[b] - off];
    }
  }
}

void TrianglePairCounter::AddTransaction(ItemSpan transaction,
                                         SubsetStats* stats) {
  CountInto(transaction, stats, tri_.data(), scratch_);
}

void TrianglePairCounter::MergeShard(const Shard& shard) {
  assert(shard.tri_.size() == tri_.size());
  for (std::size_t i = 0; i < tri_.size(); ++i) tri_[i] += shard.tri_[i];
}

void TrianglePairCounter::Extract(const ItemsetCollection& c2,
                                  std::span<Count> counts) const {
  assert(c2.k() == 2);
  assert(counts.size() == c2.size());
  for (std::size_t i = 0; i < c2.size(); ++i) {
    ItemSpan pair = c2.Get(i);
    const std::uint32_t ra = rank_[pair[0]];
    const std::uint32_t rb = rank_[pair[1]];
    assert(ra != kNotFrequent && rb != kNotFrequent && ra < rb);
    counts[i] = tri_[Index(ra, rb)];
  }
}

}  // namespace pam
