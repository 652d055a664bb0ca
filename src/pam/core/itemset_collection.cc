#include "pam/core/itemset_collection.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <numeric>
#include <utility>

namespace pam {

ItemsetCollection::ItemsetCollection(int k) : k_(k) { assert(k >= 1); }

ItemsetCollection::ItemsetCollection(int k, std::vector<Item> items,
                                     std::vector<Count> counts)
    : k_(k), items_(std::move(items)), counts_(std::move(counts)) {
  assert(k >= 1);
  assert(items_.size() == static_cast<std::size_t>(k_) * counts_.size());
#ifndef NDEBUG
  for (std::size_t i = 0; i < size(); ++i) {
    ItemSpan s = Get(i);
    for (std::size_t j = 1; j < s.size(); ++j) {
      assert(s[j - 1] < s[j] && "itemset must be sorted ascending");
    }
  }
#endif
}

void ItemsetCollection::Add(ItemSpan items) { AddWithCount(items, 0); }

void ItemsetCollection::AddWithCount(ItemSpan items, Count count) {
  assert(items.size() == static_cast<std::size_t>(k_));
#ifndef NDEBUG
  for (std::size_t i = 1; i < items.size(); ++i) {
    assert(items[i - 1] < items[i] && "itemset must be sorted ascending");
  }
#endif
  items_.insert(items_.end(), items.begin(), items.end());
  counts_.push_back(count);
}

void ItemsetCollection::SortLexicographic() {
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return CompareItemsets(Get(a), Get(b)) < 0;
  });
  std::vector<Item> new_items;
  new_items.reserve(items_.size());
  std::vector<Count> new_counts;
  new_counts.reserve(counts_.size());
  for (std::size_t i : order) {
    ItemSpan s = Get(i);
    new_items.insert(new_items.end(), s.begin(), s.end());
    new_counts.push_back(counts_[i]);
  }
  items_ = std::move(new_items);
  counts_ = std::move(new_counts);
}

bool ItemsetCollection::IsSortedUnique() const {
  for (std::size_t i = 1; i < size(); ++i) {
    if (CompareItemsets(Get(i - 1), Get(i)) >= 0) return false;
  }
  return true;
}

void ItemsetCollection::PruneBelow(Count minsup) {
  std::size_t out = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    if (counts_[i] >= minsup) {
      if (out != i) {
        std::copy_n(items_.begin() + static_cast<std::ptrdiff_t>(
                                         static_cast<std::size_t>(k_) * i),
                    static_cast<std::size_t>(k_),
                    items_.begin() + static_cast<std::ptrdiff_t>(
                                         static_cast<std::size_t>(k_) * out));
        counts_[out] = counts_[i];
      }
      ++out;
    }
  }
  items_.resize(static_cast<std::size_t>(k_) * out);
  counts_.resize(out);
}

void ItemsetCollection::ShrinkToFit() {
  items_.shrink_to_fit();
  counts_.shrink_to_fit();
}

std::size_t ItemsetCollection::Find(ItemSpan items) const {
  if (items.size() != static_cast<std::size_t>(k_)) return npos;
  return FindSorted(items_, items);
}

std::vector<std::uint64_t> ItemsetCollection::Serialize() const {
  std::vector<std::uint64_t> out;
  out.reserve(2 + items_.size() + counts_.size());
  out.push_back(static_cast<std::uint64_t>(k_));
  out.push_back(size());
  for (Item x : items_) out.push_back(x);
  for (Count c : counts_) out.push_back(c);
  return out;
}

ItemsetCollection ItemsetCollection::Deserialize(const std::uint64_t* data,
                                                 std::size_t num_words) {
  assert(num_words >= 2);
  const int k = static_cast<int>(data[0]);
  const std::size_t n = data[1];
  assert(num_words == 2 + static_cast<std::size_t>(k) * n + n);
  (void)num_words;
  ItemsetCollection col(k);
  std::vector<Item> scratch(static_cast<std::size_t>(k));
  const std::uint64_t* items = data + 2;
  const std::uint64_t* counts = items + static_cast<std::size_t>(k) * n;
  for (std::size_t i = 0; i < n; ++i) {
    for (int j = 0; j < k; ++j) {
      scratch[static_cast<std::size_t>(j)] = static_cast<Item>(
          items[i * static_cast<std::size_t>(k) + static_cast<std::size_t>(j)]);
    }
    col.AddWithCount(ItemSpan(scratch.data(), scratch.size()), counts[i]);
  }
  return col;
}

std::size_t FindSorted(ItemSpan sets, ItemSpan items) {
  const std::size_t k = items.size();
  std::size_t lo = 0;
  std::size_t hi = k == 0 ? 0 : sets.size() / k;
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    const int c = CompareItemsets(sets.subspan(mid * k, k), items);
    if (c == 0) return mid;
    if (c < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return ItemsetCollection::npos;
}

ItemsetIndex::ItemsetIndex(const ItemsetCollection& sets) : sets_(&sets) {
  assert(sets.size() < std::numeric_limits<std::uint32_t>::max());
  std::size_t num_slots = 2;
  while (num_slots < 2 * sets.size()) num_slots *= 2;
  slots_.assign(num_slots, 0);
  const std::size_t mask = num_slots - 1;
  for (std::size_t i = 0; i < sets.size(); ++i) {
    std::size_t s = Hash(sets.Get(i)) & mask;
    while (slots_[s] != 0) {
      assert(CompareItemsets(sets.Get(slots_[s] - 1), sets.Get(i)) != 0 &&
             "an indexed collection holds no itemset twice");
      s = (s + 1) & mask;
    }
    slots_[s] = static_cast<std::uint32_t>(i + 1);
  }
}

}  // namespace pam
