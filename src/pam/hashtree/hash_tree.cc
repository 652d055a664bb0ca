#include "pam/hashtree/hash_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

// The AVX2 subset kernel is compiled in only when the build enables SIMD
// (PAM_ENABLE_SIMD, set by the PAM_ENABLE_SIMD CMake option) and the
// compiler targets AVX2; every other build uses the portable scalar path.
// Both produce bit-identical counts and stats.
#if defined(PAM_ENABLE_SIMD) && defined(__AVX2__)
#define PAM_HASHTREE_AVX2 1
#include <immintrin.h>

#include <bit>
#endif

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
      k_(candidates.k()),
      identity_root_(config.identity_root) {
  assert(fanout_ >= 2);
  assert(leaf_capacity_ >= 1);
  if (identity_root_) {
    // Root is internal from the start: its children are indexed by first
    // item value and grown on demand in Insert. num_leaves_ stays 0 until
    // the first child leaf appears.
    nodes_.emplace_back();
    nodes_[0].is_leaf = false;
  } else {
    nodes_.emplace_back();  // root starts as an empty leaf
    num_leaves_ = 1;
  }
  num_candidates_ = candidate_ids.size();
  for (std::uint32_t id : candidate_ids) Insert(id);
  num_nodes_ = nodes_.size();
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
    const Item it = items[static_cast<std::size_t>(depth)];
    const std::size_t bucket =
        identity_root_ && depth == 0
            ? static_cast<std::size_t>(it)
            : static_cast<std::size_t>(Hash(it));
    Node& parent = nodes_[static_cast<std::size_t>(node)];
    if (bucket >= parent.children.size()) {
      // Only reachable at the identity root, whose children grow with the
      // largest first item seen; hashed levels are always fanout-sized.
      parent.children.resize(bucket + 1, -1);
    }
    std::int32_t& child = parent.children[bucket];
    if (child < 0) {
      child = static_cast<std::int32_t>(nodes_.size());
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
    if (identity_root_ && i == 0) {
      // The identity root's children block has item-indexed width, not
      // fanout width; it freezes into its own array (its fanout-sized
      // slot in children_ stays kAbsent and is never read).
      root_children_.assign(node.children.size(), kAbsent);
      for (std::size_t b = 0; b < node.children.size(); ++b) {
        root_children_[b] = encode(node.children[b]);
      }
      continue;
    }
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
  // Candidate item tuples copied leaf-ordered: the inner subset check
  // walks this array sequentially instead of bouncing through the
  // collection in candidate-id order.
  const std::size_t k = static_cast<std::size_t>(k_);
  leaf_items_.resize(leaf_ids_.size() * k);
  Item max_item = 0;
#if PAM_HASHTREE_AVX2
  // Column-major per leaf: item column a of an n-candidate leaf occupies
  // n contiguous slots, so the SIMD kernel loads eight candidates' a-th
  // items with one unaligned load.
  for (std::size_t l = 0; l < num_leaves; ++l) {
    const std::size_t off = leaf_offsets_[l];
    const std::size_t cnt = leaf_offsets_[l + 1] - off;
    Item* base = leaf_items_.data() + off * k;
    for (std::size_t j = 0; j < cnt; ++j) {
      ItemSpan items = candidates_.Get(leaf_ids_[off + j]);
      for (std::size_t a = 0; a < k; ++a) base[a * cnt + j] = items[a];
      max_item = std::max(max_item, items.back());
    }
  }
#else
  // Row-major: candidate j's whole tuple is contiguous.
  for (std::size_t j = 0; j < leaf_ids_.size(); ++j) {
    ItemSpan items = candidates_.Get(leaf_ids_[j]);
    std::copy(items.begin(), items.end(), leaf_items_.begin() + j * k);
    max_item = std::max(max_item, items.back());
  }
#endif
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
#if PAM_HASHTREE_AVX2
  // Column-major leaf layout: 8 candidates per iteration, one gathered
  // stamp compare per item column, AND-accumulated into a lane mask.
  // Candidate items are always < item_stamp_size_, so the gather needs no
  // bounds mask.
  const std::uint32_t cnt = end - begin;
  const Item* base = leaf_items_.data() + static_cast<std::size_t>(begin) * k;
  const __m256i vstamp = _mm256_set1_epi32(static_cast<int>(e));
  std::uint32_t j = 0;
  for (; j + 8 <= cnt; j += 8) {
    __m256i all = _mm256_set1_epi32(-1);
    for (std::size_t a = 0; a < k; ++a) {
      const __m256i idx = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(base + a * cnt + j));
      const __m256i got = _mm256_i32gather_epi32(
          reinterpret_cast<const int*>(present), idx, 4);
      all = _mm256_and_si256(all, _mm256_cmpeq_epi32(got, vstamp));
    }
    unsigned mask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(all)));
    while (mask != 0) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(mask));
      mask &= mask - 1;
      ++counts[leaf_ids_[begin + j + lane]];
    }
  }
  // Scalar tail over the same columns.
  for (; j < cnt; ++j) {
    bool all = true;
    for (std::size_t a = 0; a < k; ++a) {
      if (present[base[a * cnt + j]] != e) {
        all = false;
        break;
      }
    }
    if (all) ++counts[leaf_ids_[begin + j]];
  }
#else
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
#endif
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
        identity_root_
            ? (static_cast<std::size_t>(item) < root_children_.size()
                   ? root_children_[static_cast<std::size_t>(item)]
                   : kAbsent)
            : children[(static_cast<std::size_t>(root_ref_) << shift_) +
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
