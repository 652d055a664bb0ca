#ifndef PAM_CORE_COUNT_TEAM_H_
#define PAM_CORE_COUNT_TEAM_H_

#include <cstdint>
#include <span>
#include <vector>

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

/// Drives one pass's hash-tree counting through the intra-rank team
/// (DESIGN.md §11): transactions are split across the pool's shards, shard
/// 0 counting on the calling rank thread directly into `counts`, shards
/// 1..T-1 counting into cache-line padded CounterStrips with per-shard
/// HashTree::Scratch. Finish() merges strips and per-shard stats in fixed
/// shard order, so counts and SubsetStats are byte-identical to the
/// single-threaded path for every team size.
///
/// With a 1-thread pool the team degenerates to direct Subset() calls —
/// the exact pre-team code path, no strips, no extra allocation.
class TeamCounter {
 public:
  /// `pool`, `tree`, `counts`, `stats`, `root_filter` and `cancel` must
  /// outlive the counter. `stats` may be null (work counters are then not
  /// collected); `cancel` may be null or point at a null token (no
  /// cancellation checks — the exact pre-token code path).
  TeamCounter(CountingPool* pool, HashTree* tree, std::span<Count> counts,
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

  /// Effective team size (1 when the team is degenerate).
  int team() const { return team_; }

  /// Subset work (traversal steps + candidates checked) per shard, valid
  /// after Finish(). Empty when the team is degenerate or stats was null.
  const std::vector<std::uint64_t>& shard_work() const { return shard_work_; }

 private:
  template <typename TxAt>
  void RunBatch(std::size_t n, const TxAt& tx_at);

  CountingPool* pool_;
  HashTree* tree_;
  std::span<Count> counts_;
  SubsetStats* stats_;
  const Bitmap* filter_;
  const CancelToken* cancel_;
  obs::RankTracer* tracer_;  // the rank's tracer, re-installed on workers
  int team_;
  bool finished_ = false;

  // Team-active (team_ > 1) state.
  CounterStrips strips_;
  std::vector<HashTree::Scratch> scratch_;     // one per shard
  std::vector<SubsetStats> shard_stats_;       // one per shard
  std::vector<std::uint64_t> shard_work_;
  std::vector<ItemSpan> page_tx_;  // reusable page-decode buffer
};

/// The TeamCounter counterpart for the pass-2 triangle kernel: shard 0
/// counts into the shared TrianglePairCounter, shards 1..T-1 into private
/// TrianglePairCounter::Shard triangles merged in fixed shard order by
/// Finish(). Same determinism guarantee as TeamCounter.
class TriangleTeam {
 public:
  TriangleTeam(CountingPool* pool, TrianglePairCounter* tri,
               SubsetStats* stats, const CancelToken* cancel = nullptr);

  std::size_t CountSlice(const TransactionDatabase& db,
                         TransactionDatabase::Slice slice);

  /// Merges shard triangles and stats. Call exactly once; afterwards the
  /// parent TrianglePairCounter holds the complete counts.
  void Finish();

  int team() const { return team_; }
  const std::vector<std::uint64_t>& shard_work() const { return shard_work_; }

 private:
  template <typename TxAt>
  void RunBatch(std::size_t n, const TxAt& tx_at);

  CountingPool* pool_;
  TrianglePairCounter* tri_;
  SubsetStats* stats_;
  const CancelToken* cancel_;
  obs::RankTracer* tracer_;
  int team_;
  bool finished_ = false;

  std::vector<TrianglePairCounter::Shard> shards_;  // shards 1..T-1
  std::vector<SubsetStats> shard_stats_;
  std::vector<std::uint64_t> shard_work_;
};

}  // namespace pam

#endif  // PAM_CORE_COUNT_TEAM_H_
