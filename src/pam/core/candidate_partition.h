#ifndef PAM_CORE_CANDIDATE_PARTITION_H_
#define PAM_CORE_CANDIDATE_PARTITION_H_

#include <cstdint>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/util/bin_packing.h"
#include "pam/util/bitmap.h"

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
CandidatePartition PartitionByPrefix(const ItemsetCollection& candidates,
                                     std::size_t num_items, int num_parts,
                                     PrefixStrategy strategy,
                                     bool split_heavy_prefixes = true);

/// FNV-1a fingerprint of a partition's candidate-to-part assignment
/// (part boundaries and the ascending candidate ids of each part). Two
/// partitions of the same candidate set collide iff every candidate landed
/// on the same part — the chaos suite pins partition determinism on it.
std::uint64_t PartitionDigest(const CandidatePartition& partition);

}  // namespace pam

#endif  // PAM_CORE_CANDIDATE_PARTITION_H_
