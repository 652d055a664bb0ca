#include "pam/hashtree/hash_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace pam {

namespace {

// Smallest power of two >= v (v >= 1).
int NextPow2(int v) {
  int p = 1;
  while (p < v) p <<= 1;
  return p;
}

int Log2Pow2(int v) {
  int s = 0;
  while ((1 << s) < v) ++s;
  return s;
}

}  // namespace

HashTreeConfig HashTreeConfig::TunedFor(std::size_t num_candidates, int k,
                                        int target_s) {
  HashTreeConfig config;
  config.leaf_capacity = target_s > 0 ? target_s : 1;
  const double needed_leaves =
      static_cast<double>(num_candidates) /
      static_cast<double>(config.leaf_capacity);
  // Smallest power-of-two fanout in [4, 1024] with fanout^k >= needed
  // leaves (powers of two keep the construction-time rounding a no-op, so
  // the tuned shape is exactly what the tree builds).
  int fanout = 4;
  while (fanout < 1024 &&
         std::pow(static_cast<double>(fanout), k) < needed_leaves) {
    fanout <<= 1;
  }
  config.fanout = fanout;
  const double paths = std::pow(static_cast<double>(fanout), k);
  if (paths < needed_leaves) {
    // Even the widest tree cannot reach M / S depth-k paths: leaves will
    // chain at depth k regardless, so raise the capacity to the occupancy
    // the tree can actually achieve. This keeps upper levels from
    // splitting into chains of single-bucket internal nodes that add
    // traversal steps without reducing leaf size.
    config.leaf_capacity = static_cast<int>(
        std::ceil(static_cast<double>(num_candidates) / paths));
  }
  return config;
}

void SubsetStats::Accumulate(const SubsetStats& other) {
  transactions += other.transactions;
  root_items_considered += other.root_items_considered;
  root_items_skipped += other.root_items_skipped;
  traversal_steps += other.traversal_steps;
  distinct_leaf_visits += other.distinct_leaf_visits;
  leaf_candidates_checked += other.leaf_candidates_checked;
}

double SubsetStats::AvgLeafVisitsPerTransaction() const {
  if (transactions == 0) return 0.0;
  return static_cast<double>(distinct_leaf_visits) /
         static_cast<double>(transactions);
}

HashTree::HashTree(const ItemsetCollection& candidates,
                   std::vector<std::uint32_t> candidate_ids,
                   HashTreeConfig config)
    : candidates_(candidates),
      fanout_(NextPow2(std::max(2, config.fanout))),
      mask_(static_cast<Item>(fanout_ - 1)),
      shift_(Log2Pow2(fanout_)),
      leaf_capacity_(config.leaf_capacity),
      k_(candidates.k()) {
  assert(fanout_ >= 2);
  assert(leaf_capacity_ >= 1);
  nodes_.emplace_back();  // root starts as an empty leaf
  num_leaves_ = 1;
  num_candidates_ = candidate_ids.size();
  for (std::uint32_t id : candidate_ids) Insert(id);
  Freeze();
}

HashTree::HashTree(const ItemsetCollection& candidates, HashTreeConfig config)
    : HashTree(candidates,
               [&candidates] {
                 std::vector<std::uint32_t> all(candidates.size());
                 std::iota(all.begin(), all.end(), 0);
                 return all;
               }(),
               config) {}

void HashTree::Insert(std::uint32_t candidate_id) {
  ++build_inserts_;
  ItemSpan items = candidates_.Get(candidate_id);
  std::int32_t node = 0;
  int depth = 0;
  while (!nodes_[static_cast<std::size_t>(node)].is_leaf) {
    const std::size_t n = static_cast<std::size_t>(node);
    const std::size_t bucket =
        static_cast<std::size_t>(Hash(items[static_cast<std::size_t>(depth)]));
    std::int32_t child = nodes_[n].children[bucket];
    if (child < 0) {
      child = static_cast<std::int32_t>(nodes_.size());
      nodes_[n].children[bucket] = child;
      nodes_.emplace_back();
      ++num_leaves_;
    }
    node = child;
    ++depth;
  }
  Node& leaf = nodes_[static_cast<std::size_t>(node)];
  leaf.leaf_candidates.push_back(candidate_id);
  // Split when over capacity, unless the hash path is exhausted (depth == k):
  // then candidates must chain in the leaf, exactly as in the paper.
  if (leaf.leaf_candidates.size() >
          static_cast<std::size_t>(leaf_capacity_) &&
      depth < k_) {
    SplitLeaf(node, depth);
  }
}

void HashTree::SplitLeaf(std::int32_t node_index, int depth) {
  std::vector<std::uint32_t> moved =
      std::move(nodes_[static_cast<std::size_t>(node_index)].leaf_candidates);
  Node& node = nodes_[static_cast<std::size_t>(node_index)];
  node.is_leaf = false;
  node.leaf_candidates.clear();
  node.children.assign(static_cast<std::size_t>(fanout_), -1);
  --num_leaves_;
  for (std::uint32_t id : moved) {
    ItemSpan items = candidates_.Get(id);
    const int bucket = Hash(items[static_cast<std::size_t>(depth)]);
    // Re-fetch the child reference each iteration: recursive splits may
    // reallocate nodes_.
    std::int32_t child = nodes_[static_cast<std::size_t>(node_index)]
                             .children[static_cast<std::size_t>(bucket)];
    if (child < 0) {
      child = static_cast<std::int32_t>(nodes_.size());
      nodes_.emplace_back();
      ++num_leaves_;
      nodes_[static_cast<std::size_t>(node_index)]
          .children[static_cast<std::size_t>(bucket)] = child;
    }
    Node& leaf = nodes_[static_cast<std::size_t>(child)];
    leaf.leaf_candidates.push_back(id);
    if (leaf.leaf_candidates.size() >
            static_cast<std::size_t>(leaf_capacity_) &&
        depth + 1 < k_) {
      SplitLeaf(child, depth + 1);
    }
  }
}

void HashTree::Freeze() {
  // Assign dense ids: internal nodes index blocks of children_, leaves
  // index the CSR arrays. nodes_ insertion order is preserved so the flat
  // ids are deterministic.
  const std::size_t n = nodes_.size();
  std::vector<std::int32_t> flat_id(n);
  std::int32_t next_internal = 0;
  std::int32_t next_leaf = 0;
  for (std::size_t i = 0; i < n; ++i) {
    flat_id[i] = nodes_[i].is_leaf ? next_leaf++ : next_internal++;
  }
  const std::size_t num_internal = static_cast<std::size_t>(next_internal);
  const std::size_t num_leaves = static_cast<std::size_t>(next_leaf);
  assert(num_leaves == num_leaves_);

  const auto encode = [&](std::int32_t node_index) {
    if (node_index < 0) return kAbsent;
    const std::size_t idx = static_cast<std::size_t>(node_index);
    return nodes_[idx].is_leaf ? kLeafBase - flat_id[idx] : flat_id[idx];
  };

  children_.assign(num_internal << shift_, kAbsent);
  leaf_offsets_.assign(num_leaves + 1, 0);
  leaf_ids_.clear();
  leaf_ids_.reserve(num_candidates_);
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    if (node.is_leaf) continue;
    std::int32_t* block =
        children_.data() +
        (static_cast<std::size_t>(flat_id[i]) << shift_);
    for (int b = 0; b < fanout_; ++b) {
      block[b] = encode(node.children[static_cast<std::size_t>(b)]);
    }
  }
  // CSR leaves, in leaf-id order (= nodes_ order restricted to leaves).
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    if (!node.is_leaf) continue;
    leaf_offsets_[static_cast<std::size_t>(flat_id[i]) + 1] =
        static_cast<std::uint32_t>(node.leaf_candidates.size());
  }
  for (std::size_t l = 0; l < num_leaves; ++l) {
    leaf_offsets_[l + 1] += leaf_offsets_[l];
  }
  leaf_ids_.resize(leaf_offsets_[num_leaves]);
  for (std::size_t i = 0; i < n; ++i) {
    const Node& node = nodes_[i];
    if (!node.is_leaf) continue;
    std::uint32_t at = leaf_offsets_[static_cast<std::size_t>(flat_id[i])];
    for (std::uint32_t id : node.leaf_candidates) leaf_ids_[at++] = id;
  }
  // Candidate item tuples copied leaf-ordered and row-major: the inner
  // subset check walks this array sequentially instead of bouncing
  // through the collection in candidate-id order.
  const std::size_t k = static_cast<std::size_t>(k_);
  leaf_items_.resize(leaf_ids_.size() * k);
  Item max_item = 0;
  for (std::size_t j = 0; j < leaf_ids_.size(); ++j) {
    ItemSpan items = candidates_.Get(leaf_ids_[j]);
    std::copy(items.begin(), items.end(), leaf_items_.begin() + j * k);
    max_item = std::max(max_item, items.back());
  }
  item_stamp_size_ =
      leaf_ids_.empty() ? 0 : static_cast<std::size_t>(max_item) + 1;
  root_ref_ = encode(0);

  // The node-based tree is no longer needed; release it.
  std::vector<Node>().swap(nodes_);
}

HashTree::Scratch HashTree::MakeScratch() const {
  Scratch s;
  s.leaf_epoch.assign(num_leaves_, 0);
  s.item_stamp.assign(item_stamp_size_, 0);
  s.stack.resize(static_cast<std::size_t>(k_) + 1);
  return s;
}

void HashTree::Subset(ItemSpan transaction, std::span<Count> counts,
                      SubsetStats* stats, const Bitmap* root_filter) {
  // Made on first use (a made scratch always has a stack): the counting
  // team brings its own, and a tree need not hold an unused item-sized
  // array beside it.
  if (scratch_.stack.empty()) scratch_ = MakeScratch();
  Subset(transaction, counts, stats, root_filter, scratch_);
}

void HashTree::Subset(ItemSpan transaction, std::span<Count> counts,
                      SubsetStats* stats, const Bitmap* root_filter,
                      Scratch& scratch) const {
  // Hoist the stats / root-filter branches out of the hot loops: pick one
  // specialized instantiation once per transaction.
  if (stats != nullptr) {
    if (root_filter != nullptr) {
      SubsetFlat<true, true>(transaction, counts, stats, root_filter,
                             scratch);
    } else {
      SubsetFlat<true, false>(transaction, counts, stats, nullptr, scratch);
    }
  } else {
    if (root_filter != nullptr) {
      SubsetFlat<false, true>(transaction, counts, nullptr, root_filter,
                              scratch);
    } else {
      SubsetFlat<false, false>(transaction, counts, nullptr, nullptr,
                               scratch);
    }
  }
}

template <bool WithStats>
void HashTree::CheckLeafFlat(std::int32_t leaf, std::span<Count> counts,
                             SubsetStats* stats, Scratch& scratch) const {
  const std::size_t l = static_cast<std::size_t>(leaf);
  // Distinct-leaf detection: a leaf already visited for this transaction
  // contributes no further checking work (paper Section IV).
  if (scratch.leaf_epoch[l] == scratch.epoch) return;
  scratch.leaf_epoch[l] = scratch.epoch;
  const std::uint32_t begin = leaf_offsets_[l];
  const std::uint32_t end = leaf_offsets_[l + 1];
  if constexpr (WithStats) {
    ++stats->distinct_leaf_visits;
    stats->leaf_candidates_checked += end - begin;
  }
  // Containment via the per-item stamps: every item of the transaction
  // was stamped with the current value on entry, so a candidate is
  // contained iff all k of its items carry the stamp.
  const std::uint32_t e = scratch.stamp;
  const std::uint32_t* present = scratch.item_stamp.data();
  const std::size_t k = static_cast<std::size_t>(k_);
  const Item* tuple = leaf_items_.data() + static_cast<std::size_t>(begin) * k;
  for (std::uint32_t j = begin; j < end; ++j, tuple += k) {
    bool all = true;
    for (std::size_t a = 0; a < k; ++a) {
      if (present[tuple[a]] != e) {
        all = false;
        break;
      }
    }
    if (all) ++counts[leaf_ids_[j]];
  }
}

template <bool WithStats, bool WithFilter>
void HashTree::SubsetFlat(ItemSpan transaction, std::span<Count> counts,
                          SubsetStats* stats, const Bitmap* root_filter,
                          Scratch& scratch) const {
  assert(counts.size() == candidates_.size());
  if (static_cast<int>(transaction.size()) < k_) {
    if constexpr (WithStats) ++stats->transactions;
    return;
  }
  ++scratch.epoch;
  if (++scratch.stamp == 0) {
    // The 32-bit stamp wrapped: clear the array so stale stamps from 2^32
    // transactions ago cannot collide, then restart at 1.
    std::fill(scratch.item_stamp.begin(), scratch.item_stamp.end(), 0);
    scratch.stamp = 1;
  }
  if constexpr (WithStats) ++stats->transactions;
  // Stamp the transaction's items for the O(k) leaf containment check.
  // Items beyond the largest candidate item cannot occur in any tuple.
  {
    const std::size_t limit = scratch.item_stamp.size();
    const std::uint32_t stamp = scratch.stamp;
    for (const Item item : transaction) {
      if (static_cast<std::size_t>(item) < limit) {
        scratch.item_stamp[item] = stamp;
      }
    }
  }
  const std::size_t last_start =
      transaction.size() - static_cast<std::size_t>(k_) + 1;
  const std::int32_t* children = children_.data();
  Frame* frames = scratch.stack.data();
  const std::uint32_t tx_size = static_cast<std::uint32_t>(transaction.size());
  for (std::size_t i = 0; i < last_start; ++i) {
    const Item item = transaction[i];
    if constexpr (WithFilter) {
      if (!root_filter->Test(item)) {
        if constexpr (WithStats) ++stats->root_items_skipped;
        continue;
      }
    }
    if constexpr (WithStats) ++stats->root_items_considered;
    if (root_ref_ <= kLeafBase) {
      // Degenerate single-node tree: check once (first viable item) and
      // stop; further starts revisit the same leaf.
      CheckLeafFlat<WithStats>(kLeafBase - root_ref_, counts, stats,
                               scratch);
      break;
    }
    if constexpr (WithStats) ++stats->traversal_steps;
    const std::int32_t child =
        children[(static_cast<std::size_t>(root_ref_) << shift_) +
                 (item & mask_)];
    if (child != kAbsent) {
      if (child <= kLeafBase) {
        CheckLeafFlat<WithStats>(kLeafBase - child, counts, stats, scratch);
      } else {
        // Iterative depth-first traversal below the root child; frames
        // resume the per-node position loop, so the stack never exceeds k
        // entries.
        std::int32_t depth = 0;
        frames[0] = Frame{child, static_cast<std::uint32_t>(i + 1)};
        while (depth >= 0) {
          Frame& f = frames[depth];
          if (f.pos >= tx_size) {
            --depth;
            continue;
          }
          const Item next = transaction[f.pos++];
          if constexpr (WithStats) ++stats->traversal_steps;
          const std::int32_t c =
              children[(static_cast<std::size_t>(f.node) << shift_) +
                       (next & mask_)];
          if (c == kAbsent) continue;
          if (c <= kLeafBase) {
            CheckLeafFlat<WithStats>(kLeafBase - c, counts, stats, scratch);
          } else {
            const std::uint32_t pos = f.pos;
            frames[++depth] = Frame{c, pos};
          }
        }
      }
    }
  }
}

}  // namespace pam
