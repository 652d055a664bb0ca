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

// The triangle cells (row order) of the pairs of F_1 whose DHP bucket
// reaches minsup: C_2 as FilterByBuckets would keep it from AprioriGen's
// pairs, without generating them.
std::vector<std::size_t> CellsPassingBuckets(const ItemsetCollection& f1,
                                             const std::vector<Count>& buckets,
                                             Count minsup) {
  std::vector<std::size_t> kept;
  Item pair[2];
  std::size_t cell = 0;
  for (std::size_t a = 0; a + 1 < f1.size(); ++a) {
    pair[0] = f1.Get(a)[0];
    for (std::size_t b = a + 1; b < f1.size(); ++b, ++cell) {
      pair[1] = f1.Get(b)[0];
      const std::size_t bucket =
          HashItemset(ItemSpan(pair, 2)) % buckets.size();
      if (buckets[bucket] >= minsup) kept.push_back(cell);
    }
  }
  return kept;
}

// A triangle pass is Count Distribution in every formulation (DESIGN.md
// §16): the whole F_1 x F_1 triangle fits on every rank, so each rank
// counts its own slice into it with its counting team, one AllReduceSum
// completes the counts, and every rank reads the same F_2 off them. No
// transaction moves, nothing is exchanged, and no C_2 is generated: the
// triangle holds one cell per pair of F_1, in C_2's lexicographic order.
// Without DHP (`kept` null) the reduction runs over the triangle's cells
// in place; with it, over the cells of the pairs that pass the buckets,
// gathered in that order, so |C_2| and the reduction have the filtered
// candidate set's size.
ItemsetCollection TrianglePass(const TransactionDatabase& db,
                               TransactionDatabase::Slice slice, Comm& comm,
                               const ItemsetCollection& f1,
                               const std::vector<std::size_t>* kept,
                               Count minsup, const AprioriConfig& config,
                               CountingPool& pool, PassMetrics& m) {
  TrianglePairCounter tri(f1);
  const std::span<Count> cells = tri.cells();
  m.grid_cols = comm.size();
  m.num_candidates_global = kept != nullptr ? kept->size() : cells.size();
  m.num_candidates_local = m.num_candidates_global;
  m.transactions_processed = slice.size();
  {
    obs::ScopedSpan count_span(obs::SpanKind::kSubsetCount, /*index=*/0,
                               "triangle");
    TeamCounter team(&pool, &tri, cells, &m.subset, /*root_filter=*/nullptr,
                     &config.cancel);
    team.CountSlice(db, slice);
    team.Finish();
    AccumulateShardWork(m.shard_subset_work, team.shard_work());
  }
  if (kept == nullptr) {
    comm.AllReduceSum(cells);
    m.reduction_words += cells.size();
  } else {
    std::vector<Count> gathered;
    gathered.reserve(kept->size());
    for (const std::size_t cell : *kept) gathered.push_back(cells[cell]);
    comm.AllReduceSum(std::span<Count>(gathered));
    m.reduction_words += gathered.size();
    // A rejected pair's bucket fell below minsup, so minsup >= 1 and a
    // zeroed cell never reaches it.
    std::fill(cells.begin(), cells.end(), 0);
    for (std::size_t i = 0; i < kept->size(); ++i) {
      cells[(*kept)[i]] = gathered[i];
    }
  }

  ItemsetCollection f2(2);
  Item pair[2];
  std::size_t cell = 0;
  for (std::size_t a = 0; a + 1 < f1.size(); ++a) {
    pair[0] = f1.Get(a)[0];
    for (std::size_t b = a + 1; b < f1.size(); ++b, ++cell) {
      if (cells[cell] >= minsup) {
        pair[1] = f1.Get(b)[0];
        f2.AddWithCount(ItemSpan(pair, 2), cells[cell]);
      }
    }
  }
  return f2;
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
                     const ParallelConfig& config, const PassBody& body) {
  const AprioriConfig& apriori = config.apriori;
  const Count minsup = apriori.ResolveMinsup(db.size());
  CountingPool pool(apriori.threads_per_rank);
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
    } else if (const ItemsetCollection& prev = out.frequent.levels.back();
               TriangleEligible(k, apriori, prev.size())) {
      std::vector<std::size_t> kept;
      if (!dhp_buckets.empty()) {
        kept = CellsPassingBuckets(prev, dhp_buckets, minsup);
        if (kept.empty()) {
          pass_span.Cancel();  // no PassMetrics row, so no pass span either
          break;
        }
      }
      frequent = TrianglePass(db, slice, comm, prev,
                              dhp_buckets.empty() ? nullptr : &kept, minsup,
                              apriori, pool, m);
      m.num_frequent_global = frequent.size();
    } else {
      // Every rank generates the same C_k from the same F_{k-1}.
      ItemsetCollection candidates = AprioriGen(prev);
      if (k == 2 && !dhp_buckets.empty()) {
        candidates = FilterByBuckets(candidates, dhp_buckets, minsup);
      }
      if (candidates.empty()) {
        pass_span.Cancel();  // no PassMetrics row, so no pass span either
        break;
      }
      m.num_candidates_global = candidates.size();
      frequent = body(k, std::move(candidates), pool, m);
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
