#ifndef PAM_CORE_SERIAL_APRIORI_H_
#define PAM_CORE_SERIAL_APRIORI_H_

#include <cstdint>
#include <vector>

#include "pam/core/itemset_collection.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/tdb/database.h"
#include "pam/util/cancel.h"

namespace pam {

/// Mining parameters shared by the serial algorithm and all six parallel
/// formulations. The miners themselves, serial included, are declared in
/// pam/parallel/driver.h.
struct AprioriConfig {
  /// Absolute minimum support count. If 0, it is derived as
  /// ceil(minsup_fraction * |T|).
  Count minsup_count = 0;
  /// Relative minimum support; only used when minsup_count == 0. The
  /// paper's experiments use 0.1% .. 0.025%.
  double minsup_fraction = 0.01;
  /// Hash tree shape.
  HashTreeConfig tree;
  /// Stop after this pass (0 = run until F_k is empty). The paper's
  /// Figures 13-15 measure pass 3 only (max_k = 3 with count_only_last_pass
  /// semantics handled by the benches).
  int max_k = 0;
  /// When non-zero, at most this many candidates may be resident in memory
  /// at once: the candidate set is partitioned into ceil(M / capacity)
  /// chunks and the transactions are re-scanned once per chunk, exactly the
  /// multi-pass behaviour the paper describes for CD when the hash tree
  /// overflows memory (Figure 12). 0 = unlimited.
  std::size_t max_candidates_in_memory = 0;
  /// DHP-style pair-hash filtering (Park/Chen/Yu, the paper's refs [12]
  /// and [15]; PDM = CD + DHP): when non-zero, pass 1 additionally hashes
  /// every item pair of every transaction into this many buckets, and C_2
  /// keeps only candidates whose bucket count reaches minsup. Bucket
  /// counts upper-bound true supports, so results are identical — only
  /// C_2 (the pass the paper's Table II shows ballooning) shrinks.
  /// 0 = disabled.
  std::size_t dhp_buckets = 0;
  /// Pass-2 specialization: count C_2 with a flat triangular array over
  /// F_1 ranks instead of the hash tree (see TrianglePairCounter). Exact
  /// same counts and frequent itemsets, much faster — but no tree means no
  /// traversal/leaf-visit stats for pass 2, so the Figure 11/12
  /// instrumentation runs disable it. Only taken when the triangle fits
  /// max_candidates_in_memory. Such a pass is Count Distribution in every
  /// miner (the pass loop runs it, DESIGN.md §16): each rank counts its
  /// own slice into the whole triangle, one reduction completes the
  /// counts, and no transaction moves. With the flag off, pass 2 runs each
  /// formulation's own tree pass.
  bool use_pass2_triangle = true;
  /// Size of the intra-rank counting team (DESIGN.md §11): the counting
  /// hot path of every pass splits its transactions across this many
  /// shards — shard 0 on the rank thread, the rest on a CountingPool of
  /// worker threads, each accumulating into a cache-line padded counter
  /// strip merged deterministically at the end of the batch. 1 (the
  /// default) spawns no threads and takes exactly the old code path;
  /// results are byte-identical for every value.
  int threads_per_rank = 1;
  /// Cooperative cancellation/deadline handle (DESIGN.md §13). Checked at
  /// every pass boundary and on every bounded interval inside the
  /// subset-count team; a fired token makes the miner throw
  /// CancelledError. The default null token costs one pointer test per
  /// check point and nothing on the counting hot loop.
  CancelToken cancel;

  /// Resolves the absolute support threshold for a database of size n.
  Count ResolveMinsup(std::size_t n) const;
};

/// All frequent itemsets, one collection per size k (levels[0] is F_1).
struct FrequentItemsets {
  std::vector<ItemsetCollection> levels;

  std::size_t TotalCount() const;
  /// Largest k with non-empty F_k (0 if nothing is frequent).
  int MaxK() const { return static_cast<int>(levels.size()); }
  /// Lookup of an itemset's global support count; returns npos-like
  /// `found=false` if the set is not frequent.
  bool Lookup(ItemSpan items, Count* count) const;
};

}  // namespace pam

#endif  // PAM_CORE_SERIAL_APRIORI_H_
