#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"

namespace pam {
namespace {

// Enumerates every k-subset of `transaction` and routes it to the rank
// `HashItemset(subset) % P`; subsets owned locally are probed directly.
// This is the defining move of HPA (paper Section III-E): instead of
// moving candidates (DD/IDD) or counts (CD), it moves the potential
// candidates themselves — C = (|t| choose k) of them per transaction,
// which is why its communication volume explodes for k > 2.
class SubsetRouter {
 public:
  SubsetRouter(Comm& comm, int k, std::size_t flush_words,
               std::function<void(ItemSpan)> probe, PassMetrics* metrics)
      : comm_(comm),
        k_(k),
        flush_words_(flush_words < static_cast<std::size_t>(k) * 2
                         ? static_cast<std::size_t>(k) * 2
                         : flush_words),
        probe_(std::move(probe)),
        metrics_(metrics),
        buffers_(static_cast<std::size_t>(comm.size())),
        done_received_(0),
        chosen_(static_cast<std::size_t>(k)) {}

  /// Routes all k-subsets of one transaction.
  void RouteTransaction(ItemSpan transaction) {
    if (transaction.size() < static_cast<std::size_t>(k_)) return;
    Enumerate(transaction, 0, 0);
    // Opportunistically process what other ranks sent us so mailboxes do
    // not pile up the full subset stream.
    DrainNonBlocking();
  }

  /// Flushes remaining buffers, announces completion (an empty batch is
  /// the end-of-stream marker; real batches are never empty), and
  /// processes incoming subsets until every peer has completed. Message
  /// order is FIFO per sender, so a sender's marker always arrives after
  /// all of its batches.
  void Finish() {
    for (int dst = 0; dst < comm_.size(); ++dst) {
      if (dst == comm_.rank()) continue;
      FlushBuffer(dst);
      comm_.Send(dst, kTagHpaSubsets, std::span<const std::byte>());
    }
    while (done_received_ < comm_.size() - 1) {
      Dispatch(comm_.RecvPayload(-1, kTagHpaSubsets).bytes());
    }
  }

 private:
  void Enumerate(ItemSpan transaction, std::size_t pos, int depth) {
    if (depth == k_) {
      Route(ItemSpan(chosen_.data(), chosen_.size()));
      return;
    }
    const std::size_t remaining_needed =
        static_cast<std::size_t>(k_ - depth);
    for (std::size_t i = pos;
         i + remaining_needed <= transaction.size(); ++i) {
      chosen_[static_cast<std::size_t>(depth)] = transaction[i];
      Enumerate(transaction, i + 1, depth + 1);
    }
  }

  void Route(ItemSpan subset) {
    if (metrics_ != nullptr) ++metrics_->subset.traversal_steps;
    const int owner = static_cast<int>(HashItemset(subset) %
                                       static_cast<std::uint64_t>(
                                           comm_.size()));
    if (owner == comm_.rank()) {
      probe_(subset);
      return;
    }
    auto& buffer = buffers_[static_cast<std::size_t>(owner)];
    buffer.insert(buffer.end(), subset.begin(), subset.end());
    if (buffer.size() >= flush_words_) FlushBuffer(owner);
  }

  void FlushBuffer(int dst) {
    auto& buffer = buffers_[static_cast<std::size_t>(dst)];
    if (buffer.empty()) return;
    const auto bytes = std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(buffer.data()),
        buffer.size() * sizeof(Item));
    comm_.Send(dst, kTagHpaSubsets, bytes);
    if (metrics_ != nullptr) {
      metrics_->data_bytes_sent += bytes.size();
      ++metrics_->data_messages_sent;
    }
    buffer.clear();
  }

  // Routes an incoming message (a view into its shared transport buffer;
  // subsets are probed in place): an empty message is a peer's
  // end-of-stream marker (a fast peer may finish while we are still
  // routing, so markers can arrive at any time), everything else is a
  // batch of subsets to probe.
  void Dispatch(std::span<const std::byte> raw) {
    if (raw.empty()) {
      ++done_received_;
      return;
    }
    const auto* items = reinterpret_cast<const Item*>(raw.data());
    const std::size_t n = raw.size() / sizeof(Item);
    for (std::size_t i = 0; i + static_cast<std::size_t>(k_) <= n;
         i += static_cast<std::size_t>(k_)) {
      probe_(ItemSpan(items + i, static_cast<std::size_t>(k_)));
    }
  }

  void DrainNonBlocking() {
    Payload raw;
    while (comm_.TryRecvPayload(-1, kTagHpaSubsets, &raw, nullptr)) {
      Dispatch(raw.bytes());
    }
  }

  Comm& comm_;
  const int k_;
  const std::size_t flush_words_;
  std::function<void(ItemSpan)> probe_;
  PassMetrics* metrics_;
  std::vector<std::vector<Item>> buffers_;
  int done_received_;
  std::vector<Item> chosen_;
};

}  // namespace

// Hash Partitioned Apriori (Shintani & Kitsuregawa), as characterized in
// paper Section III-E: candidate ownership is determined by a hash
// function over the itemset, every k-subset of every local transaction is
// shipped to its owner, and owners probe the subsets against their
// candidate partition. Compared here as the paper compares it to IDD: its
// candidate balance is left to the hash (no bin packing possible) and its
// communication volume per transaction is (|t| choose k) items rather
// than |t|.
RankOutput RunHpaRank(const TransactionDatabase& db, Comm& comm,
                      const ParallelConfig& config) {
  const int p = comm.size();
  const int rank = comm.rank();
  const TransactionDatabase::Slice slice = db.RankSlice(rank, p);
  const Count minsup = config.apriori.ResolveMinsup(db.size());

  const PassBody body = [&](int k, ItemsetCollection candidates,
                            CountingPool& /*pool*/, PassMetrics& m) {
    m.grid_rows = p;
    // Hash ownership; the collection stays sorted so owners can probe
    // incoming subsets with one binary search.
    std::vector<std::uint32_t> my_ids;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (HashItemset(candidates.Get(i)) %
              static_cast<std::uint64_t>(p) ==
          static_cast<std::uint64_t>(rank)) {
        my_ids.push_back(static_cast<std::uint32_t>(i));
      }
    }
    m.num_candidates_local = my_ids.size();

    std::vector<Count> counts(candidates.size(), 0);
    m.tree_build_inserts = my_ids.size();
    SubsetRouter router(
        comm, k, config.page_bytes / sizeof(Item),
        [&](ItemSpan subset) {
          ++m.subset.leaf_candidates_checked;
          const std::size_t idx = candidates.Find(subset);
          if (idx != ItemsetCollection::npos) ++counts[idx];
        },
        &m);
    {
      // The routing loop and the closing drain are HPA's all-to-all: the
      // potential candidates themselves move, interleaved with local
      // probes.
      obs::ScopedSpan exchange_span(obs::SpanKind::kAllToAll, -1,
                                    "hpa_subsets");
      for (std::size_t t = slice.begin; t < slice.end; ++t) {
        if ((t - slice.begin) % kCancelCheckStride == 0) {
          config.apriori.cancel.Checkpoint(rank);
        }
        router.RouteTransaction(db.Transaction(t));
        ++m.transactions_processed;
      }
      router.Finish();
    }
    comm.Barrier();
    m.subset.transactions = m.transactions_processed;
    return parallel_internal::ExchangeOwnedFrequent(
        comm, candidates, std::move(counts), my_ids, minsup, m);
  };
  return RunPasses(db, slice, comm, config, body);
}

}  // namespace pam
