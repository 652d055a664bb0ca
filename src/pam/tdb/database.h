#ifndef PAM_TDB_DATABASE_H_
#define PAM_TDB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "pam/util/types.h"

namespace pam {

/// An in-memory transaction database in CSR (compressed sparse row) layout:
/// one flat array of items plus an offsets array. Transactions always store
/// their items sorted ascending and deduplicated — the invariant every
/// consumer (hash tree, apriori_gen) relies on.
///
/// The layout makes horizontal partitioning (assigning N/P transactions to
/// each processor, as all four parallel formulations do) a pair of index
/// computations, and lets P reader threads share one database without
/// copies.
class TransactionDatabase {
 public:
  TransactionDatabase() : offsets_{0} {}

  /// Appends a transaction. Items are copied, sorted, and deduplicated.
  void Add(std::vector<Item> items);
  void Add(std::initializer_list<Item> items);

  /// Appends a transaction that the caller guarantees is already sorted
  /// ascending with no duplicates (checked in debug builds only). The data
  /// generator uses this to avoid a redundant sort.
  void AddSorted(ItemSpan items);

  /// Number of transactions.
  std::size_t size() const { return offsets_.size() - 1; }
  bool empty() const { return size() == 0; }

  /// Total number of item occurrences across all transactions.
  std::size_t TotalItems() const { return items_.size(); }

  /// Average transaction length (0 for an empty database).
  double AverageLength() const {
    return empty() ? 0.0
                   : static_cast<double>(items_.size()) /
                         static_cast<double>(size());
  }

  /// One larger than the largest item id present (0 for empty databases).
  /// This is the alphabet size assumed by F1 counting and bitmap sizing.
  /// std::size_t, not Item, so the largest Item id does not wrap to 0.
  std::size_t NumItems() const { return num_items_; }

  /// Items of transaction `t`.
  ItemSpan Transaction(std::size_t t) const {
    return ItemSpan(items_.data() + offsets_[t],
                    offsets_[t + 1] - offsets_[t]);
  }

  /// A half-open transaction index range [begin, end) owned by processor
  /// `rank` when the database is split evenly across `num_ranks` processors
  /// (the "transactions are evenly distributed among the processors"
  /// assumption of paper Section III).
  struct Slice {
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t size() const { return end - begin; }
  };
  Slice RankSlice(int rank, int num_ranks) const;

  /// Serialized size in bytes when shipped across the message-passing layer
  /// (4 bytes per item + 4 bytes length per transaction). Used by the cost
  /// model to charge data-movement bytes.
  std::size_t WireBytes(const Slice& slice) const {
    return (offsets_[slice.end] - offsets_[slice.begin] + slice.size()) *
           sizeof(std::uint32_t);
  }

  /// Raw CSR access for I/O and paging.
  const std::vector<Item>& items() const { return items_; }
  const std::vector<std::size_t>& offsets() const { return offsets_; }

 private:
  std::vector<Item> items_;
  std::vector<std::size_t> offsets_;  // size() + 1 entries, offsets_[0] == 0
  std::size_t num_items_ = 0;
};

}  // namespace pam

#endif  // PAM_TDB_DATABASE_H_
