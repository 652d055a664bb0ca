#include "pam/core/itemsets_io.h"

#include <fstream>
#include <vector>

namespace pam {

Status WriteFrequentItemsets(const FrequentItemsets& frequent,
                             const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Error("cannot open for writing: " + path);
  auto put_u64 = [&out](std::uint64_t v) {
    out.write(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  put_u64(kFrequentItemsetsMagic);
  put_u64(frequent.levels.size());
  for (const ItemsetCollection& level : frequent.levels) {
    const std::vector<std::uint64_t> words = level.Serialize();
    put_u64(words.size());
    out.write(reinterpret_cast<const char*>(words.data()),
              static_cast<std::streamsize>(words.size() *
                                           sizeof(std::uint64_t)));
  }
  out.flush();
  if (!out) return Status::Error("write failed: " + path);
  return Status::Ok();
}

}  // namespace pam
