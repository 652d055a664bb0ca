#ifndef PAM_CORE_CANDIDATE_PARTITION_H_
#define PAM_CORE_CANDIDATE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/util/bin_packing.h"
#include "pam/util/bitmap.h"
#include "pam/util/stats.h"

namespace pam {

/// How IDD-style prefix partitioning assigns candidate first-items to
/// processors.
enum class PrefixStrategy {
  /// First-fit-decreasing bin packing over the per-first-item candidate
  /// histogram (the paper's scheme, Section III-C).
  kBinPacked,
  /// Contiguous item ranges ignoring weights — the paper's motivating bad
  /// example ("items 1..50 to P0, 51..100 to P1"); kept as an ablation.
  kContiguous,
};

/// A partition of a candidate set C_k across `num_parts` processors.
struct CandidatePartition {
  /// ids_per_part[p] = candidate indices owned by part p, ascending.
  std::vector<std::vector<std::uint32_t>> ids_per_part;
  /// For prefix partitions: per-part bitmap over item ids marking the
  /// first-items whose candidates (possibly a sub-range, see
  /// split_heavy_prefixes) live on that part. Empty for round-robin
  /// partitions, which cannot support root filtering.
  std::vector<Bitmap> first_item_filter;

  /// Balance of candidate counts across parts (the paper reports 1.3% for
  /// P=4 and 2.3% for P=8).
  LoadSummary CandidateBalance() const;
};

/// DD's round-robin partition: candidate i goes to part i % num_parts.
CandidatePartition PartitionRoundRobin(std::size_t num_candidates,
                                       int num_parts);

/// IDD's intelligent partition: candidates grouped by first item, items
/// packed into parts by total candidate weight (PrefixStrategy picks the
/// packer). When `split_heavy_prefixes` is true, any first-item owning more
/// than ceil(M / num_parts) candidates is split into sub-ranges by position
/// (the paper's "partition based on more than the first items" refinement
/// for skewed prefixes); the affected item's filter bit is then set on every
/// part holding one of its sub-ranges.
///
/// `candidates` must be sorted lexicographically so that candidates sharing
/// a first item are contiguous. `num_items` sizes the filter bitmaps.
///
/// When `item_cost` is non-null it must hold one fixed-point cost per item
/// id (relative scale is arbitrary); a run of c candidates with first item
/// f then weighs c * (*item_cost)[f] instead of c, both for the heavy-split
/// threshold and for the packer. This is how the adaptive load balancer
/// (DESIGN.md §14) re-packs with measured weights: null reproduces the
/// static candidate-count partition bit for bit.
CandidatePartition PartitionByPrefix(
    const ItemsetCollection& candidates, std::size_t num_items,
    int num_parts, PrefixStrategy strategy, bool split_heavy_prefixes = true,
    const std::vector<std::uint64_t>* item_cost = nullptr);

/// FNV-1a fingerprint of a partition's candidate-to-part assignment
/// (part boundaries and the ascending candidate ids of each part). Two
/// partitions of the same candidate set collide iff every candidate landed
/// on the same part — the chaos suite pins rebalancing determinism on it.
std::uint64_t PartitionDigest(const CandidatePartition& partition);

/// Number of candidates that `b` assigns to a different part than `a`
/// (both must partition the same candidate set). This is the adaptive
/// balancer's "repartition delta": how far the measured-weight packing
/// moved from the static one.
std::uint64_t PartitionMoves(const CandidatePartition& a,
                             const CandidatePartition& b);

}  // namespace pam

#endif  // PAM_CORE_CANDIDATE_PARTITION_H_
