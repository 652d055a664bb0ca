#include "pam/tdb/io.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

namespace pam {
namespace {

constexpr std::uint64_t kBinaryMagic = 0x50414d5442303146ULL;  // "PAMTB01F"

// The image's u64 offsets are read and written as the CSR's own array.
static_assert(sizeof(std::size_t) == sizeof(std::uint64_t));

// C-locale whitespace: space, \t, \n, \v, \f, \r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// FromCsr with the file named in its error.
Result<TransactionDatabase> FromCsrIn(std::vector<std::size_t> offsets,
                                      std::vector<Item> items,
                                      const std::string& path) {
  Result<TransactionDatabase> db =
      TransactionDatabase::FromCsr(std::move(offsets), std::move(items));
  if (!db.ok()) return Status::Error(db.status().message() + " in " + path);
  return db;
}

}  // namespace

Status WriteText(const TransactionDatabase& db, const std::string& path) {
  // An empty row would be a blank line, which ReadText skips: refuse it
  // before touching the file rather than write a shorter database.
  for (std::size_t t = 0; t < db.size(); ++t) {
    if (db.Transaction(t).empty()) {
      return Status::Error("transaction " + std::to_string(t) +
                           " is empty; the text format cannot hold it: " +
                           path);
    }
  }
  std::ofstream out(path);
  if (!out) return Status::Error("cannot open for writing: " + path);
  for (std::size_t t = 0; t < db.size(); ++t) {
    ItemSpan items = db.Transaction(t);
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i) out << ' ';
      out << items[i];
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::Error("write failed: " + path);
  return Status::Ok();
}

Result<TransactionDatabase> ReadText(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot open for reading: " + path);
  // In chunks, not by the file's size: a pipe has none.
  std::string text;
  std::vector<char> chunk(1 << 20);
  while (in.read(chunk.data(), static_cast<std::streamsize>(chunk.size())),
         in.gcount() > 0) {
    text.append(chunk.data(), static_cast<std::size_t>(in.gcount()));
  }
  if (in.bad()) return Status::Error("read failed: " + path);

  std::vector<std::size_t> offsets{0};
  std::vector<Item> items;
  const char* const end = text.data() + text.size();
  for (const char* line = text.data(); line < end;) {
    const char* eol =
        static_cast<const char*>(std::memchr(line, '\n', end - line));
    if (eol == nullptr) eol = end;
    const auto fail = [&](const std::string& what) {
      return Status::Error(what + " in " + path + ": " +
                           std::string(line, eol));
    };
    const std::size_t row = items.size();
    for (const char* p = line;;) {
      while (p < eol && IsSpace(*p)) ++p;
      if (p == eol) break;
      const char* token = p;
      while (p < eol && !IsSpace(*p)) ++p;
      const bool negative = *token == '-';
      const char* digits = token + (negative || *token == '+' ? 1 : 0);
      std::uint64_t v = 0;
      const auto [stop, ec] = std::from_chars(digits, p, v);
      if (ec == std::errc::invalid_argument || stop != p) {
        return fail("malformed line");
      }
      if (negative || ec == std::errc::result_out_of_range || v > kMaxItemId) {
        return fail("item id out of range [0, " + std::to_string(kMaxItemId) +
                    "]");
      }
      items.push_back(static_cast<Item>(v));
    }
    std::sort(items.begin() + row, items.end());
    items.erase(std::unique(items.begin() + row, items.end()), items.end());
    if (items.size() > row) offsets.push_back(items.size());
    line = eol + 1;
  }
  return FromCsrIn(std::move(offsets), std::move(items), path);
}

Status WriteBinary(const TransactionDatabase& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Error("cannot open for writing: " + path);
  const std::uint64_t header[] = {kBinaryMagic, db.size(),
                                  db.items().size()};
  out.write(reinterpret_cast<const char*>(header), sizeof(header));
  out.write(reinterpret_cast<const char*>(db.offsets().data()),
            static_cast<std::streamsize>(db.offsets().size() *
                                         sizeof(std::size_t)));
  out.write(reinterpret_cast<const char*>(db.items().data()),
            static_cast<std::streamsize>(db.items().size() * sizeof(Item)));
  out.flush();
  if (!out) return Status::Error("write failed: " + path);
  return Status::Ok();
}

Result<TransactionDatabase> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::Error("cannot open for reading: " + path);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  auto get_u64 = [&in]() {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (file_bytes < 3 * sizeof(std::uint64_t) || get_u64() != kBinaryMagic) {
    return Status::Error("bad magic in " + path);
  }
  const std::uint64_t num_tx = get_u64();
  const std::uint64_t num_items = get_u64();
  // Validate the header against the actual file size BEFORE allocating:
  // corrupt counts must not trigger multi-gigabyte allocations.
  const std::uint64_t expected_bytes =
      3 * sizeof(std::uint64_t) + (num_tx + 1) * sizeof(std::uint64_t) +
      num_items * sizeof(Item);
  if (num_tx >= file_bytes || num_items > file_bytes ||
      expected_bytes != file_bytes) {
    return Status::Error("size header does not match file length in " +
                         path);
  }
  // Two bulk reads straight into the arrays the database keeps.
  std::vector<std::size_t> offsets(num_tx + 1);
  std::vector<Item> items(num_items);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(std::size_t)));
  in.read(reinterpret_cast<char*>(items.data()),
          static_cast<std::streamsize>(items.size() * sizeof(Item)));
  if (!in) return Status::Error("truncated file: " + path);
  return FromCsrIn(std::move(offsets), std::move(items), path);
}

}  // namespace pam
