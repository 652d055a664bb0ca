#include "harness/layers.h"

#include <algorithm>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>

#include "pam/core/apriori_gen.h"
#include "pam/core/count_team.h"
#include "pam/core/rulegen.h"
#include "pam/hashtree/counting_pool.h"
#include "pam/hashtree/hash_tree.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/mp/runtime.h"
#include "pam/parallel/common.h"
#include "pam/tdb/io.h"
#include "pam/tdb/page_buffer.h"

namespace e2e {

using pam::Count;
using pam::ItemsetCollection;
using pam::TransactionDatabase;

SerialReplay ReplaySerial(const std::string& basket_path,
                          const pam::MiningRequest& request, SpanLog& log) {
  SerialReplay out;
  const pam::AprioriConfig& config = request.config.apriori;
  TransactionDatabase db;
  pam::CountingPool pool(config.threads_per_rank);
  pam::SubsetStats tree_stats;
  pam::SubsetStats triangle_stats;
  {
    SpanLog::Scope root(log, "replay");
    out.root_span = root.id();
    {
      SpanLog::Scope s(log, "tdb.read");
      pam::Result<TransactionDatabase> loaded = pam::ReadBinary(basket_path);
      if (!loaded.ok()) {
        out.error = loaded.status().message();
        return out;
      }
      db = std::move(loaded.value());
    }
    const TransactionDatabase::Slice all{0, db.size()};
    const Count minsup = config.ResolveMinsup(db.size());
    {
      SpanLog::Scope s(log, "core.pass1");
      const std::vector<Count> item_counts = pam::CountItems(db, all);
      out.frequent.levels.push_back(pam::MakeF1(item_counts, minsup));
    }
    for (int k = 2; config.max_k == 0 || k <= config.max_k; ++k) {
      const ItemsetCollection& prev = out.frequent.levels.back();
      if (prev.size() < 2) break;
      std::optional<ItemsetCollection> cands;
      {
        SpanLog::Scope s(log, "core.candgen");
        cands.emplace(pam::AprioriGen(prev));
      }
      if (cands->empty()) break;
      out.candidates += cands->size();
      if (k == 2) out.pair_candidates = cands->size();
      // Each span also owns the allocations its step makes and frees, so
      // the spans account for the whole pass.
      if (k == 2 && config.use_pass2_triangle &&
          pam::TrianglePairCounter::Fits(prev.size(),
                                         config.max_candidates_in_memory)) {
        SpanLog::Scope s(log, "hashtree.triangle");
        std::vector<Count> counts(cands->size(), 0);
        pam::TrianglePairCounter tri(prev);
        pam::TriangleTeam team(&pool, &tri, &triangle_stats);
        team.CountSlice(db, all);
        team.Finish();
        tri.Extract(*cands, std::span<Count>(counts));
        cands->counts() = std::move(counts);
      } else {
        std::optional<pam::HashTree> tree;
        {
          SpanLog::Scope s(log, "hashtree.build");
          tree.emplace(*cands, config.tree);
        }
        out.build_inserts += tree->build_inserts();
        SpanLog::Scope s(log, "hashtree.subset");
        std::vector<Count> counts(cands->size(), 0);
        {
          pam::TeamCounter team(&pool, &*tree, std::span<Count>(counts),
                                &tree_stats);
          team.CountSlice(db, all);
          team.Finish();
        }
        tree.reset();
        for (Count c : counts) out.count_increments += c;
        cands->counts() = std::move(counts);
      }
      bool done = false;
      {
        SpanLog::Scope s(log, "core.prune");
        cands->PruneBelow(minsup);
        done = cands->empty();
        if (!done) out.frequent.levels.push_back(std::move(*cands));
        cands.reset();
      }
      if (done) break;
    }
    if (request.generate_rules) {
      SpanLog::Scope s(log, "core.rulegen");
      out.rules = pam::GenerateRules(out.frequent, db.size(),
                                     request.min_confidence);
    }
  }
  out.wall_s = log.Duration(out.root_span);
  std::error_code ec;
  out.read_mb =
      static_cast<double>(std::filesystem::file_size(basket_path, ec)) / 1e6;
  out.read_s = log.Total("tdb.read");
  out.pass1_s = log.Total("core.pass1");
  out.candgen_s = log.Total("core.candgen");
  out.triangle_s = log.Total("hashtree.triangle");
  out.build_s = log.Total("hashtree.build");
  out.subset_s = log.Total("hashtree.subset");
  out.rulegen_s = log.Total("core.rulegen");
  out.counted_transactions =
      tree_stats.transactions + triangle_stats.transactions;
  out.traversal_steps = tree_stats.traversal_steps;
  out.leaf_visits = tree_stats.distinct_leaf_visits;
  out.leaf_checks = tree_stats.leaf_candidates_checked;
  return out;
}

namespace {

// Runs `body` on 2 ranks between two barriers and returns rank 0's
// seconds for it.
double TimedOnTwoRanks(const std::function<void(pam::Comm&)>& setup,
                       const std::function<void(pam::Comm&)>& body) {
  double seconds = 0.0;
  pam::Runtime runtime(2);
  runtime.Run([&](pam::Comm& comm) {
    setup(comm);
    comm.Barrier();
    const Clock::time_point start = Clock::now();
    body(comm);
    comm.Barrier();
    if (comm.rank() == 0) seconds = SecondsBetween(start, Clock::now());
  });
  return seconds;
}

}  // namespace

double RingReplaySeconds(const TransactionDatabase& db,
                         std::size_t page_bytes) {
  std::vector<pam::Page> pages[2];
  return TimedOnTwoRanks(
      [&](pam::Comm& comm) {
        pages[comm.rank()] =
            pam::Paginate(db, db.RankSlice(comm.rank(), 2), page_bytes);
      },
      [&](pam::Comm& comm) {
        std::uint64_t messages = 0;
        pam::parallel_internal::RingShiftAll(
            comm, pages[comm.rank()], [](pam::PageView) {}, &messages);
      });
}

double ExchangeReplaySeconds(const TransactionDatabase& db,
                             std::size_t page_bytes) {
  std::vector<pam::Page> pages[2];
  return TimedOnTwoRanks(
      [&](pam::Comm& comm) {
        pages[comm.rank()] =
            pam::Paginate(db, db.RankSlice(comm.rank(), 2), page_bytes);
      },
      [&](pam::Comm& comm) {
        const std::vector<pam::Page>& mine = pages[comm.rank()];
        std::uint64_t total = mine.size();
        comm.AllReduceSum(std::span<std::uint64_t>(&total, 1));
        const int peer = 1 - comm.rank();
        for (const pam::Page& page : mine) {
          comm.Isend(peer, pam::kTagDdPage,
                     pam::Payload::Copy(std::span<const std::byte>(
                         reinterpret_cast<const std::byte*>(page.data()),
                         page.size() * sizeof(std::uint32_t))));
        }
        for (std::uint64_t i = mine.size(); i < total; ++i) {
          (void)comm.RecvPayload(peer, pam::kTagDdPage);
        }
      });
}

double AllReduceSeconds(std::size_t words, int reps) {
  std::vector<double> per_call;
  pam::Runtime runtime(2);
  runtime.Run([&](pam::Comm& comm) {
    std::vector<std::uint64_t> buf(words, 1);
    for (int r = 0; r < reps; ++r) {
      comm.Barrier();
      const Clock::time_point start = Clock::now();
      comm.AllReduceSum(std::span<std::uint64_t>(buf));
      if (comm.rank() == 0) {
        per_call.push_back(SecondsBetween(start, Clock::now()));
      }
    }
  });
  return Median(per_call);
}

namespace {

// Total length of the union of [start, end) intervals.
double UnionLength(std::vector<std::pair<double, double>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0.0, lo = 0.0, hi = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > hi) {
      if (hi > lo) total += hi - lo;
      lo = a;
      hi = b;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

// Length of the intersection of two interval unions.
double OverlapLength(std::vector<std::pair<double, double>> a,
                     std::vector<std::pair<double, double>> b) {
  std::vector<std::pair<double, double>> both = a;
  both.insert(both.end(), b.begin(), b.end());
  return UnionLength(std::move(a)) + UnionLength(std::move(b)) -
         UnionLength(std::move(both));
}

}  // namespace

ParallelLayer MeasureParallel(const pam::MiningReport& report) {
  ParallelLayer out;
  const pam::RunMetrics& m = report.metrics;
  for (int p = 0; p < m.num_passes(); ++p) {
    for (const pam::PassMetrics& r : m.per_pass[static_cast<std::size_t>(p)]) {
      out.bytes_sent += static_cast<double>(r.data_bytes_sent);
      out.messages += static_cast<double>(r.data_messages_sent);
      out.reduction_words += static_cast<double>(r.reduction_words);
    }
    const pam::LoadSummary balance = m.SubsetWorkBalance(p);
    if (balance.total > 0.0) {
      out.imbalance = std::max(out.imbalance, balance.imbalance);
    }
  }
  using Interval = std::pair<double, double>;
  std::map<int, std::vector<Interval>> comm, counting;
  for (const pam::obs::SpanRecord& s : report.timeline.spans) {
    if (s.instant) continue;
    const Interval iv{s.ts_us, s.ts_us + s.dur_us};
    switch (s.kind) {
      case pam::obs::SpanKind::kRingRound:
      case pam::obs::SpanKind::kAllToAll:
      case pam::obs::SpanKind::kCollective:
        comm[s.rank].push_back(iv);
        break;
      case pam::obs::SpanKind::kSubsetCount:
        counting[s.rank].push_back(iv);
        break;
      default:
        break;
    }
  }
  for (const auto& [rank, iv] : comm) {
    const double wait_us = UnionLength(iv) - OverlapLength(iv, counting[rank]);
    out.comm_wait_s = std::max(out.comm_wait_s, wait_us / 1e6);
  }
  return out;
}

}  // namespace e2e
