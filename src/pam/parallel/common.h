#ifndef PAM_PARALLEL_COMMON_H_
#define PAM_PARALLEL_COMMON_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "pam/core/candidate_partition.h"
#include "pam/core/count_team.h"
#include "pam/core/serial_apriori.h"
#include "pam/hashtree/counting_pool.h"
#include "pam/mp/comm.h"
#include "pam/obs/trace.h"
#include "pam/parallel/metrics.h"
#include "pam/tdb/database.h"
#include "pam/tdb/page_buffer.h"

namespace pam {

/// Parameters for the parallel formulations, extending the mining knobs of
/// AprioriConfig.
struct ParallelConfig {
  /// Shared mining parameters (minsup, tree shape, max_k, memory cap).
  AprioriConfig apriori;
  /// Wire page size for the DD all-to-all and the IDD/HD ring pipeline
  /// (the paper moves the database "one page at a time").
  std::size_t page_bytes = 16 * 1024;
  /// HD's user threshold m: minimum candidates per candidate-partition;
  /// G = smallest divisor of P that is >= ceil(M / m), capped at P
  /// (paper Table II uses m = 50K on 64 processors).
  std::size_t hd_threshold_m = 50000;
  /// When > 0, pin HD's grid rows G to the smallest divisor of P that is
  /// >= this value instead of deriving G from hd_threshold_m — the paper
  /// pins 8x2 / 8x4 / 8x8 grids in its Figure 13 speedup runs.
  int hd_forced_rows = 0;
  /// IDD first-item packing strategy (bin-packed vs contiguous ablation).
  PrefixStrategy prefix_strategy = PrefixStrategy::kBinPacked;
  /// Disable to measure IDD without root bitmap filtering (ablation).
  bool idd_use_bitmap = true;
  /// Split first-items owning more than M/P candidates across parts
  /// (paper's skew refinement).
  bool split_heavy_prefixes = true;
  /// Single-source mode for IDD (paper Section VI: "when all the data is
  /// coming from a database server or a single file system, one processor
  /// can read data from the single source and pass the data along the
  /// communication pipeline"): the whole database resides on rank 0, which
  /// feeds the ring; the other ranks hold no local transactions. Only
  /// honored by the IDD formulation.
  bool single_source = false;
  /// Transport fault injection (disabled by default). When enabled, the
  /// driver installs this schedule into the runtime: every send of every
  /// formulation runs under it, recoverable faults are repaired by the
  /// communicator (and counted in PassMetrics), and unrecoverable ones
  /// make MineParallel throw CommError instead of returning bad counts.
  FaultConfig fault;
};

/// Message tags used by the algorithm implementations (all below the
/// collective-reserved range).
inline constexpr int kTagRingData = 1;
inline constexpr int kTagDdPage = 2;
inline constexpr int kTagHpaSubsets = 3;

namespace parallel_internal {

/// Pass 1, common to every formulation: count items over the local slice,
/// globally reduce, build F_1 (identical on every rank). When
/// `dhp_buckets` is non-null and config.apriori.dhp_buckets > 0, the same
/// scan hashes every local transaction pair into buckets and reduces them
/// globally (the PDM-style DHP filter; every rank ends with identical
/// buckets).
ItemsetCollection ParallelPass1(const TransactionDatabase& db,
                                TransactionDatabase::Slice slice, Comm& comm,
                                Count minsup, PassMetrics* metrics,
                                const ParallelConfig* config = nullptr,
                                std::vector<Count>* dhp_buckets = nullptr);

/// Serializes `sets`, all-gathers across `comm`, and returns the
/// lexicographically sorted union (partitions must be disjoint). Adds the
/// exchanged words to `broadcast_words`.
ItemsetCollection ExchangeFrequent(Comm& comm, const ItemsetCollection& sets,
                                   std::uint64_t* broadcast_words);

/// Builds the frequent subset of `candidates` restricted to `owned_ids`
/// (candidates whose global count is already in candidates.counts()).
ItemsetCollection FrequentSubset(const ItemsetCollection& candidates,
                                 const std::vector<std::uint32_t>& owned_ids,
                                 Count minsup);

/// Runs the Figure-6 ring pipeline over this rank's pages within `comm`:
/// every page of every member circulates through all members; `process` is
/// invoked for each page (own pages included), with a view into the page's
/// in-flight transport buffer — no copy out. Each local page is wrapped
/// into a shared payload once; every forwarding hop re-sends the received
/// handle, so circulation costs zero byte copies and zero checksum
/// recomputes beyond the initial wrap. Rounds are padded with empty
/// payloads so ranks with fewer pages stay in lockstep. Returns bytes sent.
std::uint64_t RingShiftAll(Comm& comm, const std::vector<Page>& local_pages,
                           const std::function<void(PageView)>& process,
                           std::uint64_t* messages_sent);

/// The smallest divisor of P that is >= `want` (>= 1), capped at P: HD's
/// grid rows, from the threshold or from a hd_forced_rows pin.
int SmallestDivisorAtLeast(std::size_t want, int num_ranks);

/// HD grid-rows choice: 1 if M < m, else the smallest divisor of P that is
/// >= ceil(M / m) (capped at P).
int ChooseGridRows(std::size_t num_candidates, std::size_t threshold_m,
                   int num_ranks);

/// Delivers pages to a counter: calls `process` once per page that reaches
/// this rank (its own included), e.g. by running a ring pipeline.
using PageStream =
    std::function<void(const std::function<void(PageView)>& process)>;

/// Builds a tree pass's counting structure over candidates `ids` of
/// `candidates` under a kTreeBuild span numbered `index`, adds its inserts
/// to the row and hands it to `count`, a callable taking `const auto&`:
/// the CandidateTrie wherever config.use_pass2_triangle allows the
/// specialised kernels, and the paper's HashTree shaped by config.tree
/// when the flag is off (the figures' and the cost model's instrument).
template <typename CountFn>
void BuildAndCount(const ItemsetCollection& candidates,
                   std::vector<std::uint32_t> ids, const AprioriConfig& config,
                   std::int64_t index, PassMetrics& m, const CountFn& count) {
  obs::ScopedSpan build_span(obs::SpanKind::kTreeBuild, index);
  const auto built = [&](const auto& tree) {
    m.tree_build_inserts += tree.build_inserts();
    build_span.End();
    count(tree);
  };
  if (config.use_pass2_triangle) {
    built(CandidateTrie(candidates, std::move(ids)));
  } else {
    built(HashTree(candidates, std::move(ids), config.tree));
  }
}

/// The counting step of the formulations that move transactions on a
/// tree pass (DD, DD+comm, IDD, HD): builds a counting tree over `owned_ids`
/// (root-filtered by `root_filter` when non-null), counts every page
/// `stream` delivers through the counting team, and returns counts
/// indexed by candidate id: complete over the streamed pages for the
/// owned ids. Fills the row's tree inserts, subset stats, shard work and
/// transactions processed.
std::vector<Count> CountPageStream(const ItemsetCollection& candidates,
                                   const std::vector<std::uint32_t>& owned_ids,
                                   const Bitmap* root_filter,
                                   const AprioriConfig& config,
                                   CountingPool* pool, PassMetrics& m,
                                   const PageStream& stream);

/// IDD's and HD's candidate partition: the static PartitionByPrefix of
/// `candidates` into `parts` (paper Section III-C). Records the partition
/// digest in `m`.
CandidatePartition PartitionPass(const ItemsetCollection& candidates,
                                 std::size_t num_items, int parts,
                                 const ParallelConfig& config, PassMetrics& m);

/// F_k of a formulation that partitions candidates: stores `counts`
/// (global for the owned ids) into `candidates`, keeps the owned frequent
/// ones, and all-gathers them over `comm` (FrequentSubset +
/// ExchangeFrequent, charged to the row's broadcast words).
ItemsetCollection ExchangeOwnedFrequent(
    Comm& comm, ItemsetCollection& candidates, std::vector<Count> counts,
    const std::vector<std::uint32_t>& owned_ids, Count minsup,
    PassMetrics& m);

}  // namespace parallel_internal
}  // namespace pam

#endif  // PAM_PARALLEL_COMMON_H_
