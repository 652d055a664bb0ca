#include "pam/core/count_team.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace pam {

void AccumulateShardWork(std::vector<std::uint64_t>& into,
                         const std::vector<std::uint64_t>& from) {
  if (into.size() < from.size()) into.resize(from.size(), 0);
  for (std::size_t i = 0; i < from.size(); ++i) into[i] += from[i];
}

template <typename Tree>
TeamCounter<Tree>::TeamCounter(CountingPool* pool, const Tree* tree,
                               std::span<Count> counts, SubsetStats* stats,
                               const Bitmap* root_filter,
                               const CancelToken* cancel)
    : pool_(pool),
      tree_(tree),
      counts_(counts),
      stats_(stats),
      filter_(root_filter),
      cancel_(cancel != nullptr && cancel->valid() ? cancel : nullptr),
      tracer_(obs::CurrentTracer()),
      team_(pool->num_threads()) {
  shards_.resize(static_cast<std::size_t>(team_));
  for (Shard& s : shards_) s.scratch = tree->MakeScratch();
  if (team_ > 1) strips_.Reset(team_, counts.size());
}

template <typename Tree>
template <typename TxAt>
void TeamCounter<Tree>::RunBatch(std::size_t n, const TxAt& tx_at) {
  pool_->Run(n, [&](int shard, std::size_t begin, std::size_t end) {
    // Workers install the rank's tracer so their shard spans land on the
    // rank's track; shard 0 already runs on the rank thread.
    std::optional<obs::ScopedTracerInstall> install;
    if (shard != 0) install.emplace(tracer_);
    obs::ScopedSpan span(obs::SpanKind::kSubsetCountShard, shard);
    const std::span<Count> out =
        shard == 0 ? counts_ : strips_.strip(shard);
    Shard& mine = shards_[static_cast<std::size_t>(shard)];
    SubsetStats* stats = stats_ != nullptr ? &mine.stats : nullptr;
    const Tree* tree = tree_;
    for (std::size_t i = begin; i < end; ++i) {
      tree->Subset(tx_at(i), out, stats, filter_, mine.scratch);
    }
  });
}

template <typename Tree>
std::size_t TeamCounter<Tree>::CountSlice(const TransactionDatabase& db,
                                          TransactionDatabase::Slice slice) {
  const std::size_t n = slice.end - slice.begin;
  // With a live token, count in kCancelCheckStride sub-batches and run a
  // progress check point between them — on the rank thread, with the pool
  // idle, so a throw never abandons in-flight workers. Counts and merged
  // stats are byte-identical either way (shard merge order is fixed).
  for (std::size_t begin = slice.begin; begin < slice.end;) {
    std::size_t end = slice.end;
    if (cancel_ != nullptr) {
      cancel_->Checkpoint();
      end = std::min(end, begin + kCancelCheckStride);
    }
    if (team_ == 1) {
      for (std::size_t t = begin; t < end; ++t) {
        tree_->Subset(db.Transaction(t), counts_, stats_, filter_,
                      shards_[0].scratch);
      }
    } else {
      RunBatch(end - begin, [&db, begin](std::size_t i) {
        return db.Transaction(begin + i);
      });
    }
    begin = end;
  }
  return n;
}

template <typename Tree>
std::size_t TeamCounter<Tree>::CountPage(PageView page) {
  if (cancel_ != nullptr) cancel_->Checkpoint();
  if (team_ == 1) {
    std::size_t n = 0;
    ForEachTransaction(page, [&](ItemSpan tx) {
      tree_->Subset(tx, counts_, stats_, filter_, shards_[0].scratch);
      ++n;
    });
    return n;
  }
  page_tx_.clear();
  ForEachTransaction(page, [this](ItemSpan tx) { page_tx_.push_back(tx); });
  RunBatch(page_tx_.size(), [this](std::size_t i) { return page_tx_[i]; });
  return page_tx_.size();
}

template <typename Tree>
void TeamCounter<Tree>::Finish() {
  assert(!finished_);
  finished_ = true;
  if (team_ == 1) return;
  strips_.MergeInto(counts_);
  if (stats_ == nullptr) return;
  // Fixed shard order: the merged stats are identical for every team size
  // (u64 sums of per-transaction contributions) and identical across runs.
  shard_work_.assign(static_cast<std::size_t>(team_), 0);
  for (int w = 0; w < team_; ++w) {
    const SubsetStats& s = shards_[static_cast<std::size_t>(w)].stats;
    stats_->Accumulate(s);
    shard_work_[static_cast<std::size_t>(w)] =
        s.traversal_steps + s.leaf_candidates_checked;
  }
}

template class TeamCounter<CandidateTrie>;
template class TeamCounter<HashTree>;
template class TeamCounter<TrianglePairCounter>;

}  // namespace pam
