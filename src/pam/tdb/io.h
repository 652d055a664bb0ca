#ifndef PAM_TDB_IO_H_
#define PAM_TDB_IO_H_

#include <string>

#include "pam/tdb/database.h"
#include "pam/util/status.h"

namespace pam {

/// Writes the database as whitespace-separated item ids, one transaction per
/// line (the common "basket file" interchange format). The grammar has no
/// spelling for an empty transaction (ReadText skips blank lines), so a
/// database holding one fails with an error naming its row, and no file is
/// written.
Status WriteText(const TransactionDatabase& db, const std::string& path);

/// Reads a basket text file, one transaction per line. The grammar:
///   - tokens are separated by C-locale whitespace (space, \t, \n, \v,
///     \f, \r), so CRLF line ends read like LF;
///   - a token is decimal digits with an optional leading '+';
///   - '-' followed by digits, or a value above kMaxItemId (overflow
///     included), fails with "item id out of range [0, 16777215] in <path>:
///     <line>";
///   - any other token fails with "malformed line in <path>: <line>";
///   - a line without tokens is skipped.
/// Items on a line may be in any order and may repeat; each row is sorted
/// and deduplicated. The file is parsed from one buffer straight into the
/// CSR arrays, which TransactionDatabase::FromCsr then takes over.
Result<TransactionDatabase> ReadText(const std::string& path);

/// Writes a compact binary image: magic, transaction count, item count, the
/// u64 offsets, then the u32 items.
Status WriteBinary(const TransactionDatabase& db, const std::string& path);

/// Reads a binary image written by WriteBinary. The magic and the size
/// header are checked against the file length before anything is
/// allocated; the offsets and the items then arrive with one read each,
/// straight into the arrays the database keeps, and
/// TransactionDatabase::FromCsr checks the CSR invariants. Its errors carry
/// " in <path>".
Result<TransactionDatabase> ReadBinary(const std::string& path);

}  // namespace pam

#endif  // PAM_TDB_IO_H_
