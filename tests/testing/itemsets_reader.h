#ifndef PAM_TESTS_TESTING_ITEMSETS_READER_H_
#define PAM_TESTS_TESTING_ITEMSETS_READER_H_

#include <cstdint>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "pam/core/itemsets_io.h"
#include "pam/core/serial_apriori.h"
#include "pam/util/status.h"

namespace pam::testing {

/// Reads a file written by WriteFrequentItemsets (pam_mine
/// --save-itemsets), validating the magic and the structural invariants
/// (level k at position k-1, sorted-unique collections). Only tests read
/// the format back; tools compare the files with cmp.
inline Result<FrequentItemsets> ReadFrequentItemsets(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::Error("cannot open for reading: " + path);
  const std::uint64_t file_bytes = static_cast<std::uint64_t>(in.tellg());
  in.seekg(0);
  auto get_u64 = [&in]() {
    std::uint64_t v = 0;
    in.read(reinterpret_cast<char*>(&v), sizeof(v));
    return v;
  };
  if (file_bytes < 2 * sizeof(std::uint64_t) ||
      get_u64() != kFrequentItemsetsMagic) {
    return Status::Error("bad magic in " + path);
  }
  const std::uint64_t num_levels = get_u64();
  if (num_levels > file_bytes) {
    return Status::Error("corrupt level count in " + path);
  }
  FrequentItemsets frequent;
  for (std::uint64_t level = 0; level < num_levels; ++level) {
    const std::uint64_t num_words = get_u64();
    if (!in || num_words < 2 ||
        num_words * sizeof(std::uint64_t) > file_bytes) {
      return Status::Error("corrupt level size in " + path);
    }
    std::vector<std::uint64_t> words(num_words);
    in.read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(num_words *
                                         sizeof(std::uint64_t)));
    if (!in) return Status::Error("truncated file: " + path);
    // Validate the collection header against its own word count before
    // deserializing.
    const std::uint64_t k = words[0];
    const std::uint64_t n = words[1];
    if (k != level + 1 || 2 + (k + 1) * n != num_words) {
      return Status::Error("corrupt level header in " + path);
    }
    // Each itemset must be strictly ascending and item-sized.
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t* set = words.data() + 2 + i * k;
      for (std::uint64_t j = 0; j < k; ++j) {
        if (set[j] > 0xffffffffULL ||
            (j > 0 && set[j - 1] >= set[j])) {
          return Status::Error("corrupt itemset in " + path);
        }
      }
    }
    ItemsetCollection collection =
        ItemsetCollection::Deserialize(words.data(), words.size());
    if (!collection.IsSortedUnique()) {
      return Status::Error("level not sorted-unique in " + path);
    }
    frequent.levels.push_back(std::move(collection));
  }
  return frequent;
}

}  // namespace pam::testing

#endif  // PAM_TESTS_TESTING_ITEMSETS_READER_H_
