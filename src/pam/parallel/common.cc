#include "pam/parallel/common.h"

#include <algorithm>
#include <cassert>

#include "pam/core/apriori_gen.h"
#include "pam/obs/trace.h"

namespace pam {
namespace parallel_internal {

ItemsetCollection ParallelPass1(const TransactionDatabase& db,
                                TransactionDatabase::Slice slice, Comm& comm,
                                Count minsup, PassMetrics* metrics,
                                const ParallelConfig* config,
                                std::vector<Count>* dhp_buckets) {
  std::vector<Count> counts = CountItems(db, slice, db.NumItems());
  comm.AllReduceSum(std::span<std::uint64_t>(counts));
  if (metrics != nullptr) {
    metrics->k = 1;
    metrics->num_candidates_global = counts.size();
    metrics->num_candidates_local = counts.size();
    metrics->reduction_words = counts.size();
    metrics->transactions_processed = slice.size();
  }
  if (dhp_buckets != nullptr && config != nullptr &&
      config->apriori.dhp_buckets > 0) {
    *dhp_buckets = CountPairBuckets(db, slice, config->apriori.dhp_buckets);
    comm.AllReduceSum(std::span<std::uint64_t>(*dhp_buckets));
    if (metrics != nullptr) metrics->reduction_words += dhp_buckets->size();
  }
  ItemsetCollection f1 = MakeF1(counts, minsup);
  if (metrics != nullptr) metrics->num_frequent_global = f1.size();
  return f1;
}

ItemsetCollection ExchangeFrequent(Comm& comm, const ItemsetCollection& sets,
                                   std::uint64_t* broadcast_words) {
  const std::vector<std::uint64_t> mine = sets.Serialize();
  if (broadcast_words != nullptr) *broadcast_words += mine.size();
  // Ring all-gather of payload handles: the serialized partitions are
  // deserialized straight out of the shared transport buffers.
  const std::vector<Payload> blobs =
      comm.AllGatherPayload(Payload::Copy(std::span<const std::byte>(
          reinterpret_cast<const std::byte*>(mine.data()),
          mine.size() * sizeof(std::uint64_t))));

  ItemsetCollection merged(sets.k());
  for (const Payload& blob : blobs) {
    const auto* words = reinterpret_cast<const std::uint64_t*>(blob.data());
    const std::size_t num_words = blob.size() / sizeof(std::uint64_t);
    ItemsetCollection part =
        ItemsetCollection::Deserialize(words, num_words);
    assert(part.k() == sets.k());
    for (std::size_t i = 0; i < part.size(); ++i) {
      merged.AddWithCount(part.Get(i), part.count(i));
    }
  }
  merged.SortLexicographic();
  assert(merged.IsSortedUnique() && "frequent partitions must be disjoint");
  return merged;
}

ItemsetCollection FrequentSubset(const ItemsetCollection& candidates,
                                 const std::vector<std::uint32_t>& owned_ids,
                                 Count minsup) {
  ItemsetCollection frequent(candidates.k());
  for (std::uint32_t id : owned_ids) {
    if (candidates.count(id) >= minsup) {
      frequent.AddWithCount(candidates.Get(id), candidates.count(id));
    }
  }
  return frequent;
}

std::uint64_t RingShiftAll(Comm& comm, const std::vector<Page>& local_pages,
                           const std::function<void(PageView)>& process,
                           std::uint64_t* messages_sent) {
  const int p = comm.size();
  if (p == 1) {
    for (const Page& page : local_pages) process(page);
    return 0;
  }

  // Agree on a common round count (max pages over members) with one
  // log-P max-reduction; short ranks pad with empty payloads so the
  // pipeline stays in lockstep.
  std::uint64_t rounds = local_pages.size();
  comm.AllReduceMax(std::span<std::uint64_t>(&rounds, 1));

  std::uint64_t bytes_sent = 0;
  const std::uint64_t my_pages = local_pages.size();
  const CancelToken& cancel = comm.cancel_token();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    // Ring-round check point: completing a round is progress (Beat), and a
    // fired token stops the pipeline here — mid-round waits are already
    // bounded by the cancellable receive slices in comm.cc.
    cancel.Checkpoint(comm.rank());
    obs::ScopedSpan round_span(obs::SpanKind::kRingRound,
                               static_cast<std::int64_t>(round));
    // FillBuffer(fd, SBuf): wrap the next local page into a shared
    // payload — the only copy this page ever pays for the whole lap.
    Payload sbuf =
        round < my_pages
            ? Payload::Copy(std::span<const std::byte>(
                  reinterpret_cast<const std::byte*>(local_pages[round].data()),
                  local_pages[round].size() * sizeof(std::uint32_t)))
            : Payload();
    // for (k = 0; k < P-1; ++k) { Irecv(left); Isend(right);
    //   Subset(SBuf); Waitall(); swap(SBuf, RBuf); }
    for (int step = 0; step < p - 1; ++step) {
      RecvRequest req = comm.Irecv(comm.LeftNeighbor(), kTagRingData);
      comm.Isend(comm.RightNeighbor(), kTagRingData, sbuf);  // same handle
      bytes_sent += sbuf.size();
      if (messages_sent != nullptr) ++*messages_sent;
      // Overlap: complete the posted receive early if the neighbor's page
      // is already deliverable, then count SBuf while RBuf sits ready.
      (void)comm.Test(req);
      if (!sbuf.empty()) process(PageViewOfBytes(sbuf.bytes()));
      comm.Wait(req);
      sbuf = req.payload();  // forwarded next step: zero-copy hand-off
    }
    // Final buffer (originating P-1 hops away).
    if (!sbuf.empty()) process(PageViewOfBytes(sbuf.bytes()));
  }
  return bytes_sent;
}

int ChooseGridRows(std::size_t num_candidates, std::size_t threshold_m,
                   int num_ranks) {
  if (threshold_m == 0 || num_candidates < threshold_m) return 1;
  const std::size_t want =
      (num_candidates + threshold_m - 1) / threshold_m;  // ceil(M / m)
  if (want >= static_cast<std::size_t>(num_ranks)) return num_ranks;
  // Smallest divisor of P that is >= want.
  for (int g = static_cast<int>(want); g <= num_ranks; ++g) {
    if (num_ranks % g == 0) return g;
  }
  return num_ranks;
}

std::vector<Count> CountPageStream(const ItemsetCollection& candidates,
                                   const std::vector<std::uint32_t>& owned_ids,
                                   const Bitmap* root_filter,
                                   const AprioriConfig& config,
                                   CountingPool* pool, PassMetrics& m,
                                   const PageStream& stream) {
  obs::ScopedSpan build_span(obs::SpanKind::kTreeBuild);
  HashTree tree(candidates, owned_ids, config.tree);
  m.tree_build_inserts = tree.build_inserts();
  build_span.End();
  std::vector<Count> counts(candidates.size(), 0);
  TeamCounter team(pool, &tree, std::span<Count>(counts), &m.subset,
                   root_filter, &config.cancel);
  std::int64_t page_index = 0;
  stream([&](PageView page) {
    obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, page_index++);
    m.transactions_processed += team.CountPage(page);
  });
  team.Finish();
  AccumulateShardWork(m.shard_subset_work, team.shard_work());
  return counts;
}

CandidatePartition PartitionPass(const ItemsetCollection& candidates,
                                 std::size_t num_items, int parts,
                                 const ParallelConfig& config, PassMetrics& m) {
  CandidatePartition partition =
      PartitionByPrefix(candidates, num_items, parts, config.prefix_strategy,
                        config.split_heavy_prefixes);
  m.partition_digest = PartitionDigest(partition);
  return partition;
}

ItemsetCollection ExchangeOwnedFrequent(
    Comm& comm, ItemsetCollection& candidates, std::vector<Count> counts,
    const std::vector<std::uint32_t>& owned_ids, Count minsup,
    PassMetrics& m) {
  candidates.counts() = std::move(counts);
  return ExchangeFrequent(comm, FrequentSubset(candidates, owned_ids, minsup),
                          &m.broadcast_words);
}

}  // namespace parallel_internal
}  // namespace pam
