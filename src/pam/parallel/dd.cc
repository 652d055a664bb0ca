#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"

namespace pam {
namespace {

using parallel_internal::CountPageStream;
using parallel_internal::ExchangeOwnedFrequent;
using parallel_internal::RingShiftAll;

// DD's data movement (paper Section III-B): every rank pushes each of its
// local pages to every other rank with P-1 point-to-point sends, receiving
// and processing remote pages as they arrive. Each page is wrapped into a
// shared payload once; the P-1 sends all carry the same handle, and remote
// pages are scanned in place through a view of the transport buffer. The
// communication volume per rank is (P-1) * N/P sent and received; on real
// sparse networks this pattern additionally suffers contention, which the
// cost model charges analytically (our mailboxes are unbounded, so the
// finite-buffer idling the paper describes cannot physically deadlock
// here).
void DdAllToAllMovement(Comm& comm, const std::vector<Page>& local_pages,
                        const std::function<void(PageView)>& process,
                        PassMetrics* metrics) {
  const int p = comm.size();
  if (p == 1) {
    for (const Page& page : local_pages) process(page);
    return;
  }
  obs::ScopedSpan exchange_span(obs::SpanKind::kAllToAll, -1, "dd_pages");

  // One log-P sum-reduction tells every rank the global page total; its
  // remote expectation is the total minus its own contribution.
  std::uint64_t total_pages = local_pages.size();
  comm.AllReduceSum(std::span<std::uint64_t>(&total_pages, 1));
  const std::uint64_t expected_remote = total_pages - local_pages.size();

  std::uint64_t received = 0;
  Payload incoming;
  for (const Page& page : local_pages) {
    const Payload handle = Payload::Copy(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(page.data()),
        page.size() * sizeof(std::uint32_t)));
    for (int r = 0; r < p; ++r) {
      if (r == comm.rank()) continue;
      comm.Isend(r, kTagDdPage, handle);  // same handle to every peer
      if (metrics != nullptr) {
        metrics->data_bytes_sent += handle.size();
        ++metrics->data_messages_sent;
      }
    }
    process(page);
    // Drain whatever remote pages already arrived (ties broken in favor of
    // other processors' buffers, as in the paper).
    while (received < expected_remote &&
           comm.TryRecvPayload(-1, kTagDdPage, &incoming)) {
      ++received;
      process(PageViewOfBytes(incoming.bytes()));
    }
  }
  while (received < expected_remote) {
    incoming = comm.RecvPayload(-1, kTagDdPage);
    ++received;
    process(PageViewOfBytes(incoming.bytes()));
  }
}

}  // namespace

// Data Distribution (paper Section III-B, Figure 5) and its "DD+comm"
// variant (Figure 10) that swaps the all-to-all page movement for IDD's
// ring pipeline while keeping the round-robin candidate partition (and
// hence DD's redundant subset work).
RankOutput RunDdRank(const TransactionDatabase& db, Comm& comm,
                     const ParallelConfig& config, bool ring_movement) {
  const int p = comm.size();
  const int rank = comm.rank();
  const TransactionDatabase::Slice slice = db.RankSlice(rank, p);
  const Count minsup = config.apriori.ResolveMinsup(db.size());

  const PassBody body = [&](int /*k*/, ItemsetCollection candidates,
                            CountingPool& pool, PassMetrics& m) {
    m.grid_rows = p;
    // Every rank regenerates the full candidate set, then keeps its
    // round-robin share in its hash tree.
    const std::vector<std::uint32_t> my_ids = std::move(
        PartitionRoundRobin(candidates.size(), p)
            .ids_per_part[static_cast<std::size_t>(rank)]);
    m.num_candidates_local = my_ids.size();
    std::vector<Count> counts = CountPageStream(
        candidates, my_ids, /*root_filter=*/nullptr, config.apriori, &pool, m,
        [&](const std::function<void(PageView)>& process) {
          const std::vector<Page> local_pages =
              Paginate(db, slice, config.page_bytes);
          if (ring_movement) {
            m.data_bytes_sent += RingShiftAll(comm, local_pages, process,
                                              &m.data_messages_sent);
          } else {
            DdAllToAllMovement(comm, local_pages, process, &m);
          }
        });
    // Counts of owned candidates are complete (every transaction passed
    // through this rank): select local frequent sets and exchange them.
    return ExchangeOwnedFrequent(comm, candidates, std::move(counts), my_ids,
                                 minsup, m);
  };
  return RunPasses(db, slice, comm, config, body);
}

}  // namespace pam
