#ifndef PAM_TDB_DATABASE_H_
#define PAM_TDB_DATABASE_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "pam/util/status.h"
#include "pam/util/types.h"

namespace pam {

/// The largest item id a database may hold: FromCsr, and so both readers,
/// return an error for any id above it. Consumers size per-item arrays by
/// NumItems() (F1 counts, root bitmaps, the trie's root, item stamps), so
/// an unbounded id in an untrusted file would become an unbounded
/// allocation. 2^24 - 1 leaves four orders of magnitude over the largest
/// item space in the repository's workloads (2000 items).
inline constexpr Item kMaxItemId = (Item{1} << 24) - 1;

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

  /// Builds a database from a CSR image, taking both arrays over without a
  /// copy. This is the one place the CSR invariants are checked, in this
  /// order: `offsets` is non-empty, starts at 0 and ends at items.size()
  /// ("corrupt offsets"); the whole array is monotone, so no row reaches
  /// past `items` ("non-monotone offsets"); then row by row, the row is
  /// strictly increasing ("unsorted transaction") and its last item is at
  /// most kMaxItemId ("item id out of range [0, 16777215]"). Messages name
  /// no file; the readers append it.
  static Result<TransactionDatabase> FromCsr(std::vector<std::size_t> offsets,
                                             std::vector<Item> items);

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
