#ifndef PAM_PARALLEL_ALGORITHMS_H_
#define PAM_PARALLEL_ALGORITHMS_H_

#include <functional>
#include <string>
#include <vector>

#include "pam/mp/comm.h"
#include "pam/parallel/common.h"
#include "pam/parallel/metrics.h"
#include "pam/tdb/database.h"

namespace pam {

/// The parallel formulations implemented by this repository
/// (paper Section III). kDDComm is the paper's "DD+comm" ablation:
/// DD's round-robin candidate partition combined with IDD's ring-based
/// data movement (Figure 10 uses it to attribute IDD's win over DD to its
/// two separate improvements). kHPA is the hash-partitioned algorithm of
/// Shintani & Kitsuregawa that Section III-E contrasts with IDD:
/// candidates are owned by hash, and every k-subset of every transaction
/// is shipped to the owner's processor — communication grows as
/// O(|t| choose k) per transaction instead of IDD's O(|t|).
enum class Algorithm { kCD, kDD, kDDComm, kIDD, kHD, kHPA };

/// Short display name ("CD", "DD", "DD+comm", "IDD", "HD").
std::string AlgorithmName(Algorithm algorithm);

/// What one rank returns from a run. All ranks compute identical frequent
/// itemsets; the driver keeps rank 0's copy.
struct RankOutput {
  FrequentItemsets frequent;
  std::vector<PassMetrics> passes;
};

/// One formulation's tree pass k >= 2 (DESIGN.md §16): given C_k
/// (`candidates`, non-empty and identical on every rank), it decides which
/// candidates this rank owns, brings the transactions to them, counts them
/// with the rank's counting team on `pool`, turns the counts into F_k, and
/// fills the formulation's fields of this rank's row `m`. The returned
/// F_k, with global counts, must be identical on every rank. Per-run state
/// (grid inputs) lives in the body's capturing scope. The loop never calls
/// it on a triangle pass.
using PassBody = std::function<ItemsetCollection(
    int k, ItemsetCollection candidates, CountingPool& pool, PassMetrics& m)>;

/// The Figure-1 Apriori pass loop every miner shares. It runs pass 1
/// (ParallelPass1 over `slice`, plus the DHP buckets) and then, for each
/// k >= 2 until F_{k-1} has fewer than two sets or max_k is reached: the
/// cancel checkpoint, the pass span, candidate generation, the pass
/// itself, and the row's common fields (k, |C_k|, |F_k|, slice wire
/// bytes, team size, fault delta, wall time), which it streams to the
/// rank's tracer. The loop owns the rank's CountingPool of
/// `threads_per_rank` threads and hands it to every pass. A pass the
/// pass-2 triangle can count is Count Distribution in every formulation:
/// the loop counts `slice` into the triangle with that pool, reduces the
/// counts over all ranks and prunes, and `body` runs only on the other
/// passes. Minsup resolves against the whole database.
RankOutput RunPasses(const TransactionDatabase& db,
                     TransactionDatabase::Slice slice, Comm& comm,
                     const ParallelConfig& config, const PassBody& body);

/// Rank programs. Each must be executed by every rank of `comm` (the
/// driver wires them into Runtime::Run); `db` is the shared read-only
/// database, of which this rank mines slice RankSlice(rank, size).
RankOutput RunCdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config);
RankOutput RunDdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config, bool ring_movement);
RankOutput RunIddRank(const TransactionDatabase& db, Comm& comm,
                      const ParallelConfig& config);
RankOutput RunHdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config);
RankOutput RunHpaRank(const TransactionDatabase& db, Comm& comm,
                      const ParallelConfig& config);

}  // namespace pam

#endif  // PAM_PARALLEL_ALGORITHMS_H_
