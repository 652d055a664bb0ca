#ifndef PAM_CORE_COUNT_TEAM_H_
#define PAM_CORE_COUNT_TEAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "pam/hashtree/candidate_trie.h"
#include "pam/hashtree/counting_pool.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/obs/trace.h"
#include "pam/tdb/database.h"
#include "pam/tdb/page_buffer.h"
#include "pam/util/bitmap.h"
#include "pam/util/cancel.h"
#include "pam/util/types.h"

namespace pam {

/// Transactions counted between two cancellation checks inside the team
/// (DESIGN.md §13): with a live token, CountSlice splits its batch at this
/// stride and runs Beat() + ThrowIfCancelled() between sub-batches, so a
/// fired deadline interrupts even a single enormous counting call within a
/// bounded amount of work. A null token takes the unsplit fast path.
inline constexpr std::size_t kCancelCheckStride = 2048;

/// Elementwise `into[i] += from[i]`, growing `into` as needed: folds one
/// counting batch's per-shard work vector into a pass accumulator.
void AccumulateShardWork(std::vector<std::uint64_t>& into,
                         const std::vector<std::uint64_t>& from);

/// Drives one pass's counting through the intra-rank team (DESIGN.md
/// §11): transactions are split across the pool's shards, shard 0 counting
/// on the calling rank thread directly into `counts`, shards 1..T-1
/// counting into cache-line padded CounterStrips, every shard with its own
/// Tree::Scratch and stats on a cache line of its own. Finish() merges
/// strips and per-shard stats in fixed shard order, so counts and
/// SubsetStats are byte-identical to the single-threaded path for every
/// team size.
///
/// `Tree` is the counting structure: TrianglePairCounter for pass 2 (with
/// `counts` its cells() and no root filter), CandidateTrie for every later
/// production pass, HashTree for the paper's instrumentation. With a
/// 1-thread pool the team degenerates to direct Subset() calls: no strips,
/// no threads.
template <typename Tree>
class TeamCounter {
 public:
  /// `pool`, `tree`, `counts`, `stats`, `root_filter` and `cancel` must
  /// outlive the counter. `stats` may be null (work counters are then not
  /// collected); `cancel` may be null or point at a null token (no
  /// cancellation checks).
  TeamCounter(CountingPool* pool, const Tree* tree, std::span<Count> counts,
              SubsetStats* stats, const Bitmap* root_filter = nullptr,
              const CancelToken* cancel = nullptr);

  /// Counts transactions [slice.begin, slice.end) of `db`; returns how
  /// many transactions were processed.
  std::size_t CountSlice(const TransactionDatabase& db,
                         TransactionDatabase::Slice slice);

  /// Counts every transaction of one wire page; returns how many.
  std::size_t CountPage(PageView page);

  /// Merges the team's strips and stats into `counts` / `stats`. Call
  /// exactly once, after the last CountSlice/CountPage.
  void Finish();

  /// Subset work (traversal steps + candidates checked) per shard, valid
  /// after Finish(). Empty when the team is degenerate or stats was null.
  const std::vector<std::uint64_t>& shard_work() const { return shard_work_; }

 private:
  template <typename TxAt>
  void RunBatch(std::size_t n, const TxAt& tx_at);

  CountingPool* pool_;
  const Tree* tree_;
  std::span<Count> counts_;
  SubsetStats* stats_;
  const Bitmap* filter_;
  const CancelToken* cancel_;
  obs::RankTracer* tracer_;  // the rank's tracer, re-installed on workers
  int team_;
  bool finished_ = false;

  // What one shard writes on every transaction: its scratch (the trie's
  // base, the hash tree's epoch and stamp) and, with a team, its stats.
  // One cache line apiece, so neighbouring shards never share one.
  struct alignas(64) Shard {
    typename Tree::Scratch scratch;
    SubsetStats stats;
  };
  std::vector<Shard> shards_;
  // Team-active (team_ > 1) state.
  CounterStrips strips_;
  std::vector<std::uint64_t> shard_work_;
  std::vector<ItemSpan> page_tx_;  // reusable page-decode buffer
};

extern template class TeamCounter<CandidateTrie>;
extern template class TeamCounter<HashTree>;
extern template class TeamCounter<TrianglePairCounter>;

/// The pass-2 team counting into the triangle's own cells(). The miners
/// spell it TeamCounter<TrianglePairCounter>; this name stays only because
/// the end-to-end benchmark's replay (e2ebench/harness/layers.cc)
/// constructs it, and that harness changes only with the benchmark.
class TriangleTeam : public TeamCounter<TrianglePairCounter> {
 public:
  TriangleTeam(CountingPool* pool, TrianglePairCounter* tri,
               SubsetStats* stats)
      : TeamCounter(pool, tri, tri->cells(), stats) {}
};

}  // namespace pam

#endif  // PAM_CORE_COUNT_TEAM_H_
