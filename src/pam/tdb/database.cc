#include "pam/tdb/database.h"

#include <algorithm>
#include <cassert>

namespace pam {

void TransactionDatabase::Add(std::vector<Item> items) {
  std::sort(items.begin(), items.end());
  items.erase(std::unique(items.begin(), items.end()), items.end());
  AddSorted(ItemSpan(items.data(), items.size()));
}

void TransactionDatabase::Add(std::initializer_list<Item> items) {
  Add(std::vector<Item>(items));
}

void TransactionDatabase::AddSorted(ItemSpan items) {
#ifndef NDEBUG
  for (std::size_t i = 1; i < items.size(); ++i) {
    assert(items[i - 1] < items[i] && "AddSorted requires strictly ascending");
  }
#endif
  items_.insert(items_.end(), items.begin(), items.end());
  offsets_.push_back(items_.size());
  if (!items.empty()) {
    num_items_ = std::max(num_items_, std::size_t{items.back()} + 1);
  }
}

TransactionDatabase::Slice TransactionDatabase::RankSlice(
    int rank, int num_ranks) const {
  assert(num_ranks > 0 && rank >= 0 && rank < num_ranks);
  const std::size_t n = size();
  const std::size_t p = static_cast<std::size_t>(num_ranks);
  const std::size_t r = static_cast<std::size_t>(rank);
  // Block distribution: first (n % p) ranks get one extra transaction.
  const std::size_t base = n / p;
  const std::size_t extra = n % p;
  Slice s;
  s.begin = r * base + std::min(r, extra);
  s.end = s.begin + base + (r < extra ? 1 : 0);
  return s;
}

}  // namespace pam
