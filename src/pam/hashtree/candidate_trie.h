#ifndef PAM_HASHTREE_CANDIDATE_TRIE_H_
#define PAM_HASHTREE_CANDIDATE_TRIE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/util/bitmap.h"
#include "pam/util/types.h"

namespace pam {

/// The production counting kernel of every tree pass (DESIGN.md §7): a
/// frozen prefix trie over candidates of an ItemsetCollection, with the
/// counting interface of HashTree. The hash tree stays as the paper's
/// instrument; AprioriConfig::use_pass2_triangle selects between them.
///
/// Level d holds the distinct (d+1)-item prefixes of the candidates as a
/// flat array sorted by item, each entry owning a contiguous range of
/// level d+1; the last level, k-1, holds one entry per candidate. The
/// root is not stored as a level: an array indexed by first item gives
/// each first item's range of level 1. Subset() stamps the transaction's
/// item positions, then for every start item tests the children of each
/// matched prefix against the stamps, without a branch on the outcome. A
/// candidate is checked only when its whole (k-1)-prefix is in the
/// transaction, where a hash-tree leaf mixes candidates of every prefix
/// that hashes to it. (Walking the transaction's remaining items through
/// the children of a wide node instead measured slower on every shape
/// tried, DESIGN.md §7.)
///
/// Work counters (SubsetStats), all exact and independent of team size:
/// - `transactions`, `root_items_considered`, `root_items_skipped` as in
///   HashTree;
/// - `traversal_steps`: child tests above the last level, one per root
///   item considered (the root lookup) plus one per child tested at
///   levels 1..k-2;
/// - `distinct_leaf_visits`: last-level parents entered, i.e. (k-1)-item
///   prefixes found in the transaction (a trie reaches each at most once);
/// - `leaf_candidates_checked`: candidates tested at the last level.
/// build_inserts() counts one per candidate.
///
/// Thread safety: the trie is immutable after construction; concurrent
/// workers call Subset() with their own Scratch and counts strip.
class CandidateTrie {
 public:
  /// Per-traversal mutable state. Opaque: obtain via MakeScratch().
  class Scratch {
   public:
    Scratch() = default;

   private:
    friend class CandidateTrie;
    // Position stamps: item x sits at position item_pos[x] - base of the
    // current n-item transaction iff that difference is below n. base
    // advances by n per transaction, so nothing is cleared between
    // transactions; when base would wrap, the array is cleared and base
    // restarts at 1 (zero never reads as present).
    std::uint32_t base = 1;
    std::vector<std::uint32_t> item_pos;
  };

  /// Builds a trie over candidates `candidate_ids` of `candidates` (k >=
  /// 2; ids in any order). The collection must outlive the trie.
  CandidateTrie(const ItemsetCollection& candidates,
                std::vector<std::uint32_t> candidate_ids);

  /// Builds a trie over *all* candidates of the collection.
  explicit CandidateTrie(const ItemsetCollection& candidates);

  /// Counts the candidates contained in `transaction` into `counts`
  /// (indexed by candidate index in the collection; size
  /// `candidates.size()`). If `root_filter` is non-null, start items
  /// without their bit set are skipped (IDD's bitmap, Figure 8). `stats`
  /// may be null. Never allocates.
  void Subset(ItemSpan transaction, std::span<Count> counts,
              SubsetStats* stats, const Bitmap* root_filter,
              Scratch& scratch) const;

  /// Fresh scratch sized for this trie.
  Scratch MakeScratch() const;

  std::size_t num_candidates() const { return leaf_ids_.size(); }
  /// Entries of level d (1 <= d < k); level k-1 has one per candidate.
  std::size_t level_size(int d) const {
    return items_[static_cast<std::size_t>(d)].size();
  }
  /// Candidates inserted during construction (one per candidate).
  std::uint64_t build_inserts() const { return leaf_ids_.size(); }

 private:
  struct Walk;
  template <bool WithStats>
  void Descend(const Walk& w, int d, std::uint32_t begin,
               std::uint32_t end) const;
  template <bool WithStats, bool WithFilter>
  void SubsetImpl(ItemSpan transaction, std::span<Count> counts,
                  SubsetStats* stats, const Bitmap* root_filter,
                  Scratch& scratch) const;

  const ItemsetCollection& candidates_;
  const int k_;
  // root_[x] .. root_[x+1] is first item x's range of level 1.
  std::vector<std::uint32_t> root_;
  // items_[d] for 1 <= d < k (items_[0] stays empty); child_[d] for
  // 1 <= d < k-1 holds level_size(d) + 1 range bounds into level d+1.
  std::vector<std::vector<Item>> items_;
  std::vector<std::vector<std::uint32_t>> child_;
  std::vector<std::uint32_t> leaf_ids_;  // candidate id per last-level entry
  std::size_t item_pos_size_ = 0;        // largest candidate item + 1
};

}  // namespace pam

#endif  // PAM_HASHTREE_CANDIDATE_TRIE_H_
