#include "pam/parallel/driver.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "pam/core/apriori_gen.h"
#include "pam/hashtree/pair_counter.h"
#include "pam/mp/runtime.h"
#include "pam/obs/trace.h"
#include "pam/util/timer.h"

namespace pam {
namespace {

// True when pass k may count with the pass-2 triangle kernel instead of a
// hash tree: k == 2, the flag is on, and the R*(R-1)/2 counter array fits
// the candidate-memory cap. Deterministic from replicated inputs, so every
// rank takes the same branch.
bool TriangleEligible(int k, const AprioriConfig& config,
                      std::size_t f1_size) {
  return k == 2 && config.use_pass2_triangle &&
         TrianglePairCounter::Fits(f1_size,
                                   config.max_candidates_in_memory);
}

// A triangle pass is Count Distribution in every formulation (DESIGN.md
// §16): the whole F_1 x F_1 triangle fits on every rank, so each rank
// counts its own slice into it with its counting team, one AllReduceSum
// of |C_2| words completes the counts, and every rank prunes the same
// global counts. No transaction moves and nothing is exchanged.
ItemsetCollection TrianglePass(const TransactionDatabase& db,
                               TransactionDatabase::Slice slice, Comm& comm,
                               const ItemsetCollection& f1,
                               ItemsetCollection candidates, Count minsup,
                               const AprioriConfig& config,
                               CountingPool& pool, PassMetrics& m) {
  m.grid_cols = comm.size();
  m.num_candidates_local = candidates.size();
  m.transactions_processed = slice.size();
  TrianglePairCounter tri(f1);
  {
    obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, /*index=*/0,
                               "triangle");
    TriangleTeam team(&pool, &tri, &m.subset, &config.cancel);
    team.CountSlice(db, slice);
    team.Finish();
    AccumulateShardWork(m.shard_subset_work, team.shard_work());
  }
  std::vector<Count> counts(candidates.size(), 0);
  tri.Extract(candidates, std::span<Count>(counts));
  comm.AllReduceSum(std::span<std::uint64_t>(counts));
  m.reduction_words += counts.size();
  candidates.counts() = std::move(counts);
  candidates.PruneBelow(minsup);
  return candidates;
}

}  // namespace

std::string AlgorithmName(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kCD:
      return "CD";
    case Algorithm::kDD:
      return "DD";
    case Algorithm::kDDComm:
      return "DD+comm";
    case Algorithm::kIDD:
      return "IDD";
    case Algorithm::kHD:
      return "HD";
    case Algorithm::kHPA:
      return "HPA";
  }
  return "?";
}

RankOutput RunPasses(const TransactionDatabase& db,
                     TransactionDatabase::Slice slice, Comm& comm,
                     const ParallelConfig& config, CountingPool& pool,
                     const PassBody& body) {
  const AprioriConfig& apriori = config.apriori;
  const Count minsup = apriori.ResolveMinsup(db.size());
  std::vector<Count> dhp_buckets;  // PDM-style DHP filter state (optional)
  RankOutput out;
  // Pass 1 runs whatever max_k says; every later pass needs two sets in
  // F_{k-1} to join.
  for (int k = 1; k == 1 || apriori.max_k == 0 || k <= apriori.max_k; ++k) {
    if (k > 1 && out.frequent.levels.back().size() < 2) break;
    apriori.cancel.Checkpoint(comm.rank());
    obs::ScopedSpan pass_span(obs::SpanKind::kPass, k, -1, nullptr);
    WallTimer timer;
    PassMetrics m;
    m.k = k;
    m.local_db_wire_bytes = db.WireBytes(slice);
    m.threads_per_rank = std::max(1, apriori.threads_per_rank);
    const CommFaultStats faults_at_start = comm.MyFaultStats();

    ItemsetCollection frequent(k);
    if (k == 1) {
      // Every formulation counts pass 1 CD-style: a 1 x P grid.
      m.grid_cols = comm.size();
      frequent = parallel_internal::ParallelPass1(db, slice, comm, minsup, &m,
                                                  &config, &dhp_buckets);
    } else {
      // Every rank generates the same C_k from the same F_{k-1}.
      const ItemsetCollection& prev = out.frequent.levels.back();
      ItemsetCollection candidates = AprioriGen(prev);
      if (k == 2 && !dhp_buckets.empty()) {
        candidates = FilterByBuckets(candidates, dhp_buckets, minsup);
      }
      if (candidates.empty()) {
        pass_span.Cancel();  // no PassMetrics row, so no pass span either
        break;
      }
      m.num_candidates_global = candidates.size();
      frequent = TriangleEligible(k, apriori, prev.size())
                     ? TrianglePass(db, slice, comm, prev,
                                    std::move(candidates), minsup, apriori,
                                    pool, m)
                     : body(k, std::move(candidates), m);
      m.num_frequent_global = frequent.size();
    }
    const CommFaultStats faults = comm.MyFaultStats();
    m.comm_faults_injected = faults.injected - faults_at_start.injected;
    m.comm_retries = faults.retries - faults_at_start.retries;
    m.comm_faults_detected = faults.detected - faults_at_start.detected;
    m.wall_seconds = timer.Seconds();
    obs::EmitPassMetrics(m);
    out.passes.push_back(m);
    if (frequent.empty()) break;
    out.frequent.levels.push_back(std::move(frequent));
  }
  // F_k outlives the run; C_k's capacity need not. Released here, once,
  // rather than in every pass's prune: freeing C_k mid-run let the
  // allocator trim the heap that the next pass then faulted back in.
  for (ItemsetCollection& level : out.frequent.levels) level.ShrinkToFit();
  return out;
}

MiningReport MineParallel(Algorithm algorithm, const TransactionDatabase& db,
                          int num_ranks, const ParallelConfig& config,
                          obs::SessionObs* observers) {
  assert(num_ranks >= 1);
  WallTimer timer;
  Runtime runtime(num_ranks);
  runtime.SetFaultConfig(config.fault);
  runtime.SetCancelToken(config.apriori.cancel);
  std::vector<RankOutput> outputs(static_cast<std::size_t>(num_ranks));

  runtime.Run([&](Comm& comm) {
    // Give this rank's thread its span/metrics emitter (a null observer
    // set disables it). Everything the rank does below — formulation
    // code, ring pipeline, collectives — reaches it thread-locally.
    obs::RankTracer tracer(observers, comm.rank());
    obs::ScopedTracerInstall install(&tracer);
    RankOutput out;
    switch (algorithm) {
      case Algorithm::kCD:
        out = RunCdRank(db, comm, config);
        break;
      case Algorithm::kDD:
        out = RunDdRank(db, comm, config, /*ring_movement=*/false);
        break;
      case Algorithm::kDDComm:
        out = RunDdRank(db, comm, config, /*ring_movement=*/true);
        break;
      case Algorithm::kIDD:
        out = RunIddRank(db, comm, config);
        break;
      case Algorithm::kHD:
        out = RunHdRank(db, comm, config);
        break;
      case Algorithm::kHPA:
        out = RunHpaRank(db, comm, config);
        break;
    }
    outputs[static_cast<std::size_t>(comm.rank())] = std::move(out);
  });

  MiningReport result;
  result.minsup_count = config.apriori.ResolveMinsup(db.size());
  result.frequent = std::move(outputs[0].frequent);
  const std::size_t num_passes = outputs[0].passes.size();
#ifndef NDEBUG
  for (const RankOutput& out : outputs) {
    assert(out.passes.size() == num_passes &&
           "ranks must execute identical pass structure");
  }
#endif
  result.metrics.per_pass.resize(num_passes);
  for (std::size_t pass = 0; pass < num_passes; ++pass) {
    auto& row = result.metrics.per_pass[pass];
    row.reserve(static_cast<std::size_t>(num_ranks));
    for (const RankOutput& out : outputs) {
      row.push_back(out.passes[pass]);
    }
  }
  result.wall_seconds = timer.Seconds();
  return result;
}

MiningReport MineSerial(const TransactionDatabase& db,
                        const AprioriConfig& config) {
  ParallelConfig one_rank;
  one_rank.apriori = config;
  return MineParallel(Algorithm::kCD, db, 1, one_rank);
}

}  // namespace pam
