#ifndef PAM_TDB_IO_H_
#define PAM_TDB_IO_H_

#include <string>

#include "pam/tdb/database.h"
#include "pam/util/status.h"

namespace pam {

/// The largest item id the readers accept: ReadText and ReadBinary return
/// an error for any id above it. Consumers size per-item arrays by
/// NumItems() (F1 counts, root bitmaps, the hash tree's identity root), so
/// an unbounded id in an untrusted file would become an unbounded
/// allocation. 2^24 - 1 leaves four orders of magnitude over the largest
/// item space in the repository's workloads (2000 items).
inline constexpr Item kMaxItemId = (Item{1} << 24) - 1;

/// Writes the database as whitespace-separated item ids, one transaction per
/// line (the common "basket file" interchange format).
Status WriteText(const TransactionDatabase& db, const std::string& path);

/// Reads a basket text file. Blank lines are skipped; items on a line may be
/// in any order and may repeat (they are sorted/deduplicated on load).
/// A token that is not an item id in [0, kMaxItemId] is an error.
Result<TransactionDatabase> ReadText(const std::string& path);

/// Writes a compact binary image: magic, transaction count, offsets, items.
Status WriteBinary(const TransactionDatabase& db, const std::string& path);

/// Reads a binary image written by WriteBinary, validating the magic and
/// structural invariants (monotone offsets, sorted transactions, item ids
/// at most kMaxItemId).
Result<TransactionDatabase> ReadBinary(const std::string& path);

}  // namespace pam

#endif  // PAM_TDB_IO_H_
