#ifndef PAM_TESTS_TESTING_REFERENCE_H_
#define PAM_TESTS_TESTING_REFERENCE_H_

// Independent references the library is checked against. None of this is
// linked into the miners: the tests and bench_hashtree_kernel include it.
//
//   ReferenceHashTree   the paper's hash tree (Figures 2 and 3) as a
//                       node-per-allocation tree with a recursive
//                       traversal; the only independent check of the
//                       production kernel's SubsetStats.
//   CountBruteForce     O(|T| * |C_k|) subset matching; counts only.
//   BruteForceFrequent  every itemset of every transaction, enumerated;
//                       the exactness oracle for whole mining runs.
//   GenerateRulesBruteForce
//                       every non-empty proper subset of every frequent
//                       itemset as a consequent; the oracle for rules.
//   ExtractClosed       frequent itemsets with no superset of equal
//                       support, beside the library's ExtractMaximal.
//   CoveredByClosure    membership in the downward closure of a set of
//                       itemsets (e.g. ExtractMaximal's output).

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>
#include <span>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/core/rulegen.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/tdb/database.h"
#include "pam/util/bitmap.h"
#include "pam/util/types.h"

namespace pam::testing {

/// A candidate hash tree built from the same candidate ids and
/// HashTreeConfig as a HashTree, by its own insertion code, and traversed
/// recursively node by node. Its counts and SubsetStats must equal the
/// production kernel's bit for bit: the shape rules (fanout rounded up to
/// a power of two, leaves split above leaf_capacity until depth k, the
/// identity root indexed by first item) and the work the counters charge
/// are the contract both implement. Not thread-safe: the traversal stamps
/// leaves with a per-transaction epoch.
class ReferenceHashTree {
 public:
  ReferenceHashTree(const ItemsetCollection& candidates,
                    const std::vector<std::uint32_t>& candidate_ids,
                    const HashTreeConfig& config)
      : candidates_(candidates),
        fanout_(RoundUpPow2(std::max(2, config.fanout))),
        leaf_capacity_(config.leaf_capacity),
        k_(candidates.k()),
        identity_root_(config.identity_root) {
    nodes_.emplace_back();
    // The identity root is internal from the start, its children indexed
    // by first item and grown on demand; a hashed root starts as a leaf.
    nodes_[0].is_leaf = !identity_root_;
    for (const std::uint32_t id : candidate_ids) Insert(id);
  }

  /// Counts the candidates contained in `transaction` into `counts`
  /// (indexed by collection candidate id), skipping root items whose bit
  /// is clear in `root_filter` when it is non-null. `stats` may be null.
  void Subset(ItemSpan transaction, std::span<Count> counts,
              SubsetStats* stats, const Bitmap* root_filter = nullptr) {
    if (stats) ++stats->transactions;
    if (static_cast<int>(transaction.size()) < k_) return;
    ++epoch_;
    // Items past position size - k cannot start a k-candidate.
    const std::size_t last_start =
        transaction.size() - static_cast<std::size_t>(k_) + 1;
    for (std::size_t i = 0; i < last_start; ++i) {
      const Item item = transaction[i];
      if (root_filter != nullptr && !root_filter->Test(item)) {
        if (stats) ++stats->root_items_skipped;
        continue;
      }
      if (stats) ++stats->root_items_considered;
      if (nodes_[0].is_leaf) {
        // A root that never split: one check covers every start item.
        Visit(0, transaction, i + 1, counts, stats);
        break;
      }
      if (stats) ++stats->traversal_steps;
      const std::int32_t child = Child(0, item, /*depth=*/0);
      if (child >= 0) Visit(child, transaction, i + 1, counts, stats);
    }
  }

 private:
  struct Node {
    bool is_leaf = true;
    std::vector<std::int32_t> children;  // -1 when absent
    std::vector<std::uint32_t> ids;      // leaf candidates
    std::uint64_t visit_epoch = 0;
  };

  static int RoundUpPow2(int v) {
    int p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  std::size_t Bucket(Item item, int depth) const {
    return identity_root_ && depth == 0
               ? static_cast<std::size_t>(item)
               : static_cast<std::size_t>(item) &
                     static_cast<std::size_t>(fanout_ - 1);
  }

  std::int32_t Child(std::int32_t node, Item item, int depth) const {
    const std::vector<std::int32_t>& children =
        nodes_[static_cast<std::size_t>(node)].children;
    const std::size_t b = Bucket(item, depth);
    return b < children.size() ? children[b] : -1;
  }

  // Returns the child of `node` for `item`, creating an empty leaf there
  // if none exists yet.
  std::int32_t ChildOrNew(std::int32_t node, Item item, int depth) {
    const std::size_t b = Bucket(item, depth);
    std::vector<std::int32_t>& children =
        nodes_[static_cast<std::size_t>(node)].children;
    if (b >= children.size()) children.resize(b + 1, -1);
    std::int32_t child = children[b];
    if (child < 0) {
      child = static_cast<std::int32_t>(nodes_.size());
      nodes_[static_cast<std::size_t>(node)].children[b] = child;
      nodes_.emplace_back();
    }
    return child;
  }

  void Insert(std::uint32_t id) {
    const ItemSpan items = candidates_.Get(id);
    std::int32_t node = 0;
    int depth = 0;
    while (!nodes_[static_cast<std::size_t>(node)].is_leaf) {
      node = ChildOrNew(node, items[static_cast<std::size_t>(depth)], depth);
      ++depth;
    }
    AddToLeaf(node, depth, id);
  }

  // A leaf over capacity splits into a fanout-wide internal node, unless
  // the hash path is exhausted (depth == k) and candidates must chain.
  void AddToLeaf(std::int32_t leaf, int depth, std::uint32_t id) {
    Node& node = nodes_[static_cast<std::size_t>(leaf)];
    node.ids.push_back(id);
    if (node.ids.size() <= static_cast<std::size_t>(leaf_capacity_) ||
        depth >= k_) {
      return;
    }
    const std::vector<std::uint32_t> moved = std::move(node.ids);
    node.ids.clear();
    node.is_leaf = false;
    node.children.assign(static_cast<std::size_t>(fanout_), -1);
    for (const std::uint32_t m : moved) {
      const Item item = candidates_.Get(m)[static_cast<std::size_t>(depth)];
      AddToLeaf(ChildOrNew(leaf, item, depth), depth + 1, m);
    }
  }

  void Visit(std::int32_t index, ItemSpan transaction, std::size_t pos,
             std::span<Count> counts, SubsetStats* stats) {
    Node& node = nodes_[static_cast<std::size_t>(index)];
    if (node.is_leaf) {
      // A leaf reached again within one transaction adds no work (the
      // distinct leaf visits of the paper's Section IV).
      if (node.visit_epoch == epoch_) return;
      node.visit_epoch = epoch_;
      if (stats) {
        ++stats->distinct_leaf_visits;
        stats->leaf_candidates_checked += node.ids.size();
      }
      for (const std::uint32_t id : node.ids) {
        if (IsSortedSubset(candidates_.Get(id), transaction)) ++counts[id];
      }
      return;
    }
    for (std::size_t i = pos; i < transaction.size(); ++i) {
      if (stats) ++stats->traversal_steps;
      // Below the root every level hashes, whatever its depth.
      const std::int32_t child = Child(index, transaction[i], /*depth=*/1);
      if (child >= 0) Visit(child, transaction, i + 1, counts, stats);
    }
  }

  const ItemsetCollection& candidates_;
  const int fanout_;
  const int leaf_capacity_;
  const int k_;
  const bool identity_root_;
  std::vector<Node> nodes_;
  std::uint64_t epoch_ = 0;
};

/// Counts every candidate over the transactions [slice.begin, slice.end)
/// of `db` by testing each candidate against each transaction.
inline std::vector<Count> CountBruteForce(
    const TransactionDatabase& db, TransactionDatabase::Slice slice,
    const ItemsetCollection& candidates) {
  std::vector<Count> counts(candidates.size(), 0);
  for (std::size_t t = slice.begin; t < slice.end; ++t) {
    const ItemSpan tx = db.Transaction(t);
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      if (IsSortedSubset(candidates.Get(c), tx)) ++counts[c];
    }
  }
  return counts;
}

/// Every itemset of at most `max_k` items with support >= `minsup`, by
/// enumerating all subsets of every transaction. Exponential in the
/// transaction length: test-sized inputs only.
inline std::map<std::vector<Item>, Count> BruteForceFrequent(
    const TransactionDatabase& db, Count minsup, int max_k) {
  std::map<std::vector<Item>, Count> counts;
  for (std::size_t t = 0; t < db.size(); ++t) {
    const ItemSpan tx = db.Transaction(t);
    const std::size_t n = tx.size();
    for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
      if (__builtin_popcountll(mask) > max_k) continue;
      std::vector<Item> subset;
      for (std::size_t i = 0; i < n; ++i) {
        if (mask & (1ULL << i)) subset.push_back(tx[i]);
      }
      ++counts[subset];
    }
  }
  std::map<std::vector<Item>, Count> frequent;
  for (const auto& [set, c] : counts) {
    if (c >= minsup) frequent[set] = c;
  }
  return frequent;
}

/// Reference implementation of rule generation: enumerates every non-empty
/// proper subset of every frequent itemset. Exponential in k — test-sized
/// inputs only.
inline std::vector<Rule> GenerateRulesBruteForce(
    const FrequentItemsets& frequent, std::size_t num_transactions,
    double min_confidence) {
  std::vector<Rule> rules;
  const double n = static_cast<double>(num_transactions);

  for (std::size_t level = 1; level < frequent.levels.size(); ++level) {
    const ItemsetCollection& sets = frequent.levels[level];
    for (std::size_t s = 0; s < sets.size(); ++s) {
      ItemSpan full = sets.Get(s);
      const Count joint = sets.count(s);
      const std::size_t k = full.size();
      assert(k < 64);
      // Every non-empty proper subset mask chooses the consequent.
      for (std::uint64_t mask = 1; mask + 1 < (1ULL << k); ++mask) {
        std::vector<Item> antecedent;
        std::vector<Item> consequent;
        for (std::size_t i = 0; i < k; ++i) {
          if (mask & (1ULL << i)) {
            consequent.push_back(full[i]);
          } else {
            antecedent.push_back(full[i]);
          }
        }
        Count ante_count = 0;
        if (!frequent.Lookup(ItemSpan(antecedent.data(), antecedent.size()),
                             &ante_count) ||
            ante_count == 0) {
          continue;
        }
        const double conf =
            static_cast<double>(joint) / static_cast<double>(ante_count);
        if (conf >= min_confidence) {
          rules.push_back(Rule{std::move(antecedent), std::move(consequent),
                               joint, static_cast<double>(joint) / n, conf});
        }
      }
    }
  }
  // GenerateRules' order: descending confidence, then descending support,
  // then lexicographic.
  std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.support != b.support) return a.support > b.support;
    if (a.antecedent != b.antecedent) return a.antecedent < b.antecedent;
    return a.consequent < b.consequent;
  });
  return rules;
}

/// The closed frequent itemsets: those with no superset of equal support.
/// Closed sets keep every support count, where maximal sets keep only
/// which itemsets are frequent. Grouped by size like the input.
inline FrequentItemsets ExtractClosed(const FrequentItemsets& frequent) {
  FrequentItemsets out;
  for (std::size_t level = 0; level < frequent.levels.size(); ++level) {
    const ItemsetCollection& sets = frequent.levels[level];
    ItemsetCollection kept(sets.k());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      // An equal-support superset implies a one-larger one of equal
      // support (support only falls along a chain), so level + 1 suffices.
      bool dominated = false;
      if (level + 1 < frequent.levels.size()) {
        const ItemsetCollection& supersets = frequent.levels[level + 1];
        for (std::size_t j = 0; j < supersets.size() && !dominated; ++j) {
          dominated = IsSortedSubset(sets.Get(i), supersets.Get(j)) &&
                      supersets.count(j) == sets.count(i);
        }
      }
      if (!dominated) kept.AddWithCount(sets.Get(i), sets.count(i));
    }
    out.levels.push_back(std::move(kept));
  }
  while (!out.levels.empty() && out.levels.back().empty()) {
    out.levels.pop_back();
  }
  return out;
}

/// True if `items` is a subset of some itemset of `sets` of at least its
/// size: for ExtractMaximal's output, whether `items` is frequent.
inline bool CoveredByClosure(const FrequentItemsets& sets, ItemSpan items) {
  if (items.empty()) return false;
  for (std::size_t level = items.size() - 1; level < sets.levels.size();
       ++level) {
    const ItemsetCollection& level_sets = sets.levels[level];
    for (std::size_t i = 0; i < level_sets.size(); ++i) {
      if (IsSortedSubset(items, level_sets.Get(i))) return true;
    }
  }
  return false;
}

}  // namespace pam::testing

#endif  // PAM_TESTS_TESTING_REFERENCE_H_
