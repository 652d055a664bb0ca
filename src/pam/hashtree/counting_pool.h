#ifndef PAM_HASHTREE_COUNTING_POOL_H_
#define PAM_HASHTREE_COUNTING_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "pam/util/types.h"

namespace pam {

/// A persistent team of counting worker threads for the intra-rank
/// shared-memory counting path (DESIGN.md Section 11). The pool mirrors
/// the paper's grid decomposition one level down: each simulated rank
/// splits its transaction stream across `num_threads` shards, shard 0
/// running on the calling (rank) thread and shards 1..T-1 on pool workers.
///
/// `CountingPool(1)` spawns no threads and Run() degenerates to a direct
/// call on the caller — the zero-overhead configuration and the default.
class CountingPool {
 public:
  using ShardFn = std::function<void(int shard, std::size_t begin,
                                     std::size_t end)>;

  /// Spawns `num_threads - 1` workers (clamped below at 1 thread total).
  explicit CountingPool(int num_threads);
  ~CountingPool();

  CountingPool(const CountingPool&) = delete;
  CountingPool& operator=(const CountingPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Splits [0, n) into num_threads() near-equal contiguous shards and
  /// runs fn(shard, begin, end) for every non-empty shard: shard 0 on the
  /// calling thread, the rest on the pool workers. Blocks until all shards
  /// finish. An exception escaping any shard is rethrown here after every
  /// shard has completed (the caller's own exception wins when both
  /// throw). Not reentrant: one Run() at a time per pool.
  void Run(std::size_t n, const ShardFn& fn);

 private:
  struct Range {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  void WorkerLoop(int shard);

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;  // workers wait for a new generation
  std::condition_variable done_cv_;  // Run() waits for pending_ == 0
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  const ShardFn* job_ = nullptr;
  std::vector<Range> ranges_;
  int pending_ = 0;
  std::exception_ptr error_;
};

/// Cache-line padded per-shard counter strips. Shard 0 accumulates
/// directly into the pass's output array (it runs on the rank thread and
/// its writes need no isolation); shards 1..T-1 each get a private strip
/// here, padded so neighbouring strips never share a 64-byte line.
/// MergeInto() folds the strips into the output in fixed ascending shard
/// order, so the merged counts are identical for every thread count (each
/// cell is a sum of per-transaction contributions; sharding only
/// repartitions the addends).
class CounterStrips {
 public:
  /// Prepares zeroed strips for shards 1..num_shards-1, each of logical
  /// width `width`. Reuses the backing allocation across passes.
  void Reset(int num_shards, std::size_t width);

  /// The strip of shard `shard` (>= 1), as a width-sized span.
  std::span<Count> strip(int shard) {
    return {data_.data() + static_cast<std::size_t>(shard - 1) * stride_,
            width_};
  }

  /// Adds every strip into `out` (size width), strips in shard order.
  void MergeInto(std::span<Count> out) const;

 private:
  // 8 Counts == one 64-byte cache line.
  static constexpr std::size_t kLineCounts = 8;

  std::size_t width_ = 0;
  std::size_t stride_ = 0;
  int num_strips_ = 0;
  std::vector<Count> data_;
};

}  // namespace pam

#endif  // PAM_HASHTREE_COUNTING_POOL_H_
