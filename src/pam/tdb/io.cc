#include "pam/tdb/io.h"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace pam {
namespace {

constexpr std::uint64_t kBinaryMagic = 0x50414d5442303146ULL;  // "PAMTB01F"

}  // namespace

Status WriteText(const TransactionDatabase& db, const std::string& path) {
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
  std::ifstream in(path);
  if (!in) return Status::Error("cannot open for reading: " + path);
  TransactionDatabase db;
  std::string line;
  std::vector<Item> items;
  while (std::getline(in, line)) {
    items.clear();
    std::istringstream ls(line);
    std::uint64_t v = 0;
    while (ls >> v) {
      // The stream parses "-1" as 2^64 - 1, so this bound also rejects
      // negative ids.
      if (v > kMaxItemId) {
        return Status::Error("item id out of range [0, " +
                             std::to_string(kMaxItemId) + "] in " + path +
                             ": " + line);
      }
      items.push_back(static_cast<Item>(v));
    }
    if (ls.fail() && !ls.eof()) {
      return Status::Error("malformed line in " + path + ": " + line);
    }
    if (!items.empty()) db.Add(items);
  }
  return db;
}

Status WriteBinary(const TransactionDatabase& db, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Error("cannot open for writing: " + path);
  auto put_u64 = [&out](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u64(kBinaryMagic);
  put_u64(db.size());
  put_u64(db.items().size());
  for (std::size_t off : db.offsets()) put_u64(off);
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
  std::vector<std::uint64_t> offsets(num_tx + 1);
  for (auto& off : offsets) off = get_u64();
  std::vector<Item> items(num_items);
  in.read(reinterpret_cast<char*>(items.data()),
          static_cast<std::streamsize>(num_items * sizeof(Item)));
  if (!in) return Status::Error("truncated file: " + path);
  if (offsets.front() != 0 || offsets.back() != num_items) {
    return Status::Error("corrupt offsets in " + path);
  }
  TransactionDatabase db;
  for (std::uint64_t t = 0; t < num_tx; ++t) {
    if (offsets[t] > offsets[t + 1]) {
      return Status::Error("non-monotone offsets in " + path);
    }
    ItemSpan span(items.data() + offsets[t], offsets[t + 1] - offsets[t]);
    for (std::size_t i = 1; i < span.size(); ++i) {
      if (span[i - 1] >= span[i]) {
        return Status::Error("unsorted transaction in " + path);
      }
    }
    // Strictly increasing, so the last item bounds the whole transaction.
    if (!span.empty() && span.back() > kMaxItemId) {
      return Status::Error("item id out of range [0, " +
                           std::to_string(kMaxItemId) + "] in " + path);
    }
    db.AddSorted(span);
  }
  return db;
}

}  // namespace pam
