#include "pam/hashtree/candidate_trie.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>

namespace pam {

// What one Subset() call shares down the recursion.
struct CandidateTrie::Walk {
  std::uint32_t n;            // transaction length
  std::uint32_t base;         // position stamp of tx[0]
  const std::uint32_t* pos;   // item -> stamped position
  Count* counts;
  SubsetStats* stats;
};

CandidateTrie::CandidateTrie(const ItemsetCollection& candidates,
                             std::vector<std::uint32_t> candidate_ids)
    : candidates_(candidates), k_(candidates.k()) {
  assert(k_ >= 2);
  const auto k = static_cast<std::size_t>(k_);
  const auto less = [&candidates](std::uint32_t a, std::uint32_t b) {
    const ItemSpan x = candidates.Get(a);
    const ItemSpan y = candidates.Get(b);
    return std::lexicographical_compare(x.begin(), x.end(), y.begin(),
                                        y.end());
  };
  // C_k is generated sorted and every partition keeps ascending ids, so
  // this is normally only the check.
  if (!std::is_sorted(candidate_ids.begin(), candidate_ids.end(), less)) {
    std::sort(candidate_ids.begin(), candidate_ids.end(), less);
  }
  items_.resize(k);
  child_.resize(k - 1);
  Item max_first = 0;
  Item max_item = 0;
  for (const std::uint32_t id : candidate_ids) {
    const ItemSpan s = candidates.Get(id);
    max_first = std::max(max_first, s[0]);
    max_item = std::max(max_item, s[k - 1]);
  }
  if (!candidate_ids.empty()) {
    root_.assign(static_cast<std::size_t>(max_first) + 2, 0);
    item_pos_size_ = static_cast<std::size_t>(max_item) + 1;
  }
  leaf_ids_.reserve(candidate_ids.size());
  ItemSpan prev;
  for (const std::uint32_t id : candidate_ids) {
    const ItemSpan s = candidates.Get(id);
    // A candidate opens new entries from the first level where it leaves
    // the previous candidate's prefix (a duplicate gets its own leaf).
    std::size_t common = 0;
    if (!prev.empty()) {
      while (common < k - 1 && s[common] == prev[common]) ++common;
    }
    for (std::size_t d = std::max<std::size_t>(common, 1); d < k; ++d) {
      if (d + 1 < k) {
        child_[d].push_back(static_cast<std::uint32_t>(items_[d + 1].size()));
      }
      if (d == 1) ++root_[static_cast<std::size_t>(s[0]) + 1];
      items_[d].push_back(s[d]);
    }
    leaf_ids_.push_back(id);
    prev = s;
  }
  for (std::size_t d = 1; d + 1 < k; ++d) {
    child_[d].push_back(static_cast<std::uint32_t>(items_[d + 1].size()));
  }
  std::partial_sum(root_.begin(), root_.end(), root_.begin());
}

CandidateTrie::CandidateTrie(const ItemsetCollection& candidates)
    : CandidateTrie(candidates, [&candidates] {
        std::vector<std::uint32_t> all(candidates.size());
        std::iota(all.begin(), all.end(), 0);
        return all;
      }()) {}

CandidateTrie::Scratch CandidateTrie::MakeScratch() const {
  Scratch s;
  s.item_pos.assign(item_pos_size_, 0);
  return s;
}

void CandidateTrie::Subset(ItemSpan transaction, std::span<Count> counts,
                           SubsetStats* stats, const Bitmap* root_filter,
                           Scratch& scratch) const {
  if (stats != nullptr) {
    if (root_filter != nullptr) {
      SubsetImpl<true, true>(transaction, counts, stats, root_filter,
                             scratch);
    } else {
      SubsetImpl<true, false>(transaction, counts, stats, nullptr, scratch);
    }
  } else {
    if (root_filter != nullptr) {
      SubsetImpl<false, true>(transaction, counts, nullptr, root_filter,
                              scratch);
    } else {
      SubsetImpl<false, false>(transaction, counts, nullptr, nullptr,
                               scratch);
    }
  }
}

template <bool WithStats>
void CandidateTrie::Descend(const Walk& w, int d, std::uint32_t begin,
                            std::uint32_t end) const {
  // [begin, end) are the children at level d of a prefix found in the
  // transaction. Candidate items increase, so a stamped child item always
  // sits after the prefix. Both loops test every child without a branch
  // on the outcome: the last level adds the test's result to the
  // candidate's count, and inner levels first gather the matches, then
  // descend into them.
  const Item* items = items_[static_cast<std::size_t>(d)].data();
  if (d == k_ - 1) {
    if constexpr (WithStats) {
      ++w.stats->distinct_leaf_visits;
      w.stats->leaf_candidates_checked += end - begin;
    }
    for (std::uint32_t j = begin; j < end; ++j) {
      w.counts[leaf_ids_[j]] += w.pos[items[j]] - w.base < w.n;
    }
    return;
  }
  if constexpr (WithStats) w.stats->traversal_steps += end - begin;
  // A child at level d needs k-1-d more items after it: its position must
  // be below `limit`.
  const std::uint32_t limit = w.n - static_cast<std::uint32_t>(k_ - 1 - d);
  const std::uint32_t* child = child_[static_cast<std::size_t>(d)].data();
  constexpr std::uint32_t kBatch = 32;
  std::uint32_t hit[kBatch];
  for (std::uint32_t j = begin; j < end;) {
    const std::uint32_t stop = std::min(end, j + kBatch);
    std::uint32_t hits = 0;
    for (; j < stop; ++j) {
      hit[hits] = j;
      hits += w.pos[items[j]] - w.base < limit;
    }
    for (std::uint32_t h = 0; h < hits; ++h) {
      Descend<WithStats>(w, d + 1, child[hit[h]], child[hit[h] + 1]);
    }
  }
}

template <bool WithStats, bool WithFilter>
void CandidateTrie::SubsetImpl(ItemSpan transaction, std::span<Count> counts,
                               SubsetStats* stats, const Bitmap* root_filter,
                               Scratch& scratch) const {
  assert(counts.size() == candidates_.size());
  if constexpr (WithStats) ++stats->transactions;
  const auto n = static_cast<std::uint32_t>(transaction.size());
  if (n < static_cast<std::uint32_t>(k_)) return;
  if (std::numeric_limits<std::uint32_t>::max() - scratch.base < n) {
    std::fill(scratch.item_pos.begin(), scratch.item_pos.end(), 0);
    scratch.base = 1;
  }
  const std::uint32_t base = scratch.base;
  scratch.base += n;
  {
    const std::size_t size = scratch.item_pos.size();
    std::uint32_t* pos = scratch.item_pos.data();
    for (std::uint32_t q = 0; q < n; ++q) {
      const Item item = transaction[q];
      if (static_cast<std::size_t>(item) < size) pos[item] = base + q;
    }
  }
  const Walk w{n, base, scratch.item_pos.data(), counts.data(), stats};
  const std::size_t root_items = root_.empty() ? 0 : root_.size() - 1;
  const std::uint32_t last_start = n - static_cast<std::uint32_t>(k_) + 1;
  for (std::uint32_t i = 0; i < last_start; ++i) {
    const Item item = transaction[i];
    if constexpr (WithFilter) {
      if (!root_filter->Test(item)) {
        if constexpr (WithStats) ++stats->root_items_skipped;
        continue;
      }
    }
    if constexpr (WithStats) {
      ++stats->root_items_considered;
      ++stats->traversal_steps;
    }
    if (static_cast<std::size_t>(item) >= root_items) continue;
    const std::uint32_t begin = root_[item];
    const std::uint32_t end = root_[static_cast<std::size_t>(item) + 1];
    if (begin != end) Descend<WithStats>(w, 1, begin, end);
  }
}

}  // namespace pam
