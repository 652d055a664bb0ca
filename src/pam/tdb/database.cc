#include "pam/tdb/database.h"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>

namespace pam {

Result<TransactionDatabase> TransactionDatabase::FromCsr(
    std::vector<std::size_t> offsets, std::vector<Item> items) {
  if (offsets.empty() || offsets.front() != 0 ||
      offsets.back() != items.size()) {
    return Status::Error("corrupt offsets");
  }
  // With both ends pinned, a monotone array keeps every row inside
  // `items`; it is checked whole before any row is read.
  if (!std::is_sorted(offsets.begin(), offsets.end())) {
    return Status::Error("non-monotone offsets");
  }
  std::size_t num_items = 0;
  for (std::size_t t = 0; t + 1 < offsets.size(); ++t) {
    const std::size_t begin = offsets[t];
    const std::size_t end = offsets[t + 1];
    if (begin == end) continue;
    for (std::size_t i = begin + 1; i < end; ++i) {
      if (items[i - 1] >= items[i]) {
        return Status::Error("unsorted transaction");
      }
    }
    // Strictly increasing, so the last item bounds the whole row.
    if (items[end - 1] > kMaxItemId) {
      return Status::Error("item id out of range [0, " +
                           std::to_string(kMaxItemId) + "]");
    }
    num_items = std::max(num_items, std::size_t{items[end - 1]} + 1);
  }
  TransactionDatabase db;
  db.offsets_ = std::move(offsets);
  db.items_ = std::move(items);
  db.num_items_ = num_items;
  return db;
}

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
