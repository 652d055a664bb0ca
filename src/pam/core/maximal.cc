#include "pam/core/maximal.h"

#include <algorithm>

namespace pam {

FrequentItemsets ExtractMaximal(const FrequentItemsets& frequent) {
  FrequentItemsets out;
  std::vector<Item> subset;
  for (std::size_t level = 0; level < frequent.levels.size(); ++level) {
    const ItemsetCollection& sets = frequent.levels[level];
    // A frequent superset exists iff a one-larger one does (downward
    // closure), so marking every k-subset of every (k+1)-set through an
    // index over F_k finds each dominated k-set in linear time.
    std::vector<char> dominated(sets.size(), 0);
    if (level + 1 < frequent.levels.size()) {
      const ItemsetIndex index(sets);
      const ItemsetCollection& supersets = frequent.levels[level + 1];
      subset.resize(static_cast<std::size_t>(sets.k()));
      for (std::size_t j = 0; j < supersets.size(); ++j) {
        const ItemSpan super = supersets.Get(j);
        for (std::size_t drop = 0; drop < super.size(); ++drop) {
          std::copy(super.begin(), super.begin() + drop, subset.begin());
          std::copy(super.begin() + drop + 1, super.end(),
                    subset.begin() + drop);
          const std::size_t pos = index.Find(subset);
          if (pos != ItemsetCollection::npos) dominated[pos] = 1;
        }
      }
    }
    ItemsetCollection kept(sets.k());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      if (!dominated[i]) kept.AddWithCount(sets.Get(i), sets.count(i));
    }
    out.levels.push_back(std::move(kept));
  }
  while (!out.levels.empty() && out.levels.back().empty()) {
    out.levels.pop_back();
  }
  return out;
}

}  // namespace pam
