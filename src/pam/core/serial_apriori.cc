#include "pam/core/serial_apriori.h"

#include <cmath>

namespace pam {

Count AprioriConfig::ResolveMinsup(std::size_t n) const {
  if (minsup_count > 0) return minsup_count;
  const double raw = minsup_fraction * static_cast<double>(n);
  const Count c = static_cast<Count>(std::ceil(raw));
  return c > 0 ? c : 1;
}

std::size_t FrequentItemsets::TotalCount() const {
  std::size_t total = 0;
  for (const auto& level : levels) total += level.size();
  return total;
}

bool FrequentItemsets::Lookup(ItemSpan items, Count* count) const {
  if (items.empty() || items.size() > levels.size()) return false;
  const ItemsetCollection& level = levels[items.size() - 1];
  const std::size_t idx = level.Find(items);
  if (idx == ItemsetCollection::npos) return false;
  if (count != nullptr) *count = level.count(idx);
  return true;
}

}  // namespace pam
