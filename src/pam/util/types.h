#ifndef PAM_UTIL_TYPES_H_
#define PAM_UTIL_TYPES_H_

#include <cstdint>
#include <span>
#include <vector>

namespace pam {

/// An item identifier. Items in a transaction database are dense integers
/// starting at 0. Itemsets are always stored with items in ascending order,
/// which is the invariant the candidate hash tree and apriori_gen rely on.
using Item = std::uint32_t;

/// A read-only view over the (sorted) items of one itemset or transaction.
using ItemSpan = std::span<const Item>;

/// Support counter. 64-bit so that global reductions over billions of
/// transactions cannot overflow.
using Count = std::uint64_t;

/// Returns true if `needle` (sorted) is a subset of `haystack` (sorted).
inline bool IsSortedSubset(ItemSpan needle, ItemSpan haystack) {
  std::size_t j = 0;
  for (Item x : needle) {
    while (j < haystack.size() && haystack[j] < x) ++j;
    if (j == haystack.size() || haystack[j] != x) return false;
    ++j;
  }
  return true;
}

/// Lexicographic comparison of two sorted itemsets.
inline int CompareItemsets(ItemSpan a, ItemSpan b) {
  const std::size_t n = a.size() < b.size() ? a.size() : b.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  if (a.size() == b.size()) return 0;
  return a.size() < b.size() ? -1 : 1;
}

/// 64-bit FNV-1a style hash of an itemset: HPA's candidate owner and the
/// DHP pair bucket are this hash modulo a count, so HPA's and DHP's
/// counters are fixed by it.
inline std::uint64_t HashItemset(ItemSpan items) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (Item x : items) {
    h ^= static_cast<std::uint64_t>(x) + 0x9e3779b97f4a7c15ULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace pam

#endif  // PAM_UTIL_TYPES_H_
