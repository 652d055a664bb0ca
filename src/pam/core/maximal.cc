#include "pam/core/maximal.h"

namespace pam {

FrequentItemsets ExtractMaximal(const FrequentItemsets& frequent) {
  FrequentItemsets out;
  for (std::size_t level = 0; level < frequent.levels.size(); ++level) {
    const ItemsetCollection& sets = frequent.levels[level];
    ItemsetCollection kept(sets.k());
    const ItemsetCollection* supersets =
        level + 1 < frequent.levels.size() ? &frequent.levels[level + 1]
                                           : nullptr;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      ItemSpan s = sets.Get(i);
      // A frequent superset exists iff a one-larger one does (downward
      // closure), so only level + 1 is scanned.
      bool dominated = false;
      if (supersets != nullptr) {
        for (std::size_t j = 0; j < supersets->size() && !dominated; ++j) {
          dominated = IsSortedSubset(s, supersets->Get(j));
        }
      }
      if (!dominated) kept.AddWithCount(s, sets.count(i));
    }
    out.levels.push_back(std::move(kept));
  }
  while (!out.levels.empty() && out.levels.back().empty()) {
    out.levels.pop_back();
  }
  return out;
}

}  // namespace pam
