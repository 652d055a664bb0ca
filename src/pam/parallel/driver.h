#ifndef PAM_PARALLEL_DRIVER_H_
#define PAM_PARALLEL_DRIVER_H_

#include <vector>

#include "pam/core/rulegen.h"
#include "pam/core/serial_apriori.h"
#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"
#include "pam/parallel/metrics.h"
#include "pam/tdb/database.h"

namespace pam {

/// Everything a mining run produces.
struct MiningReport {
  FrequentItemsets frequent;
  /// Association rules (MiningSession fills them when the request asks;
  /// empty otherwise).
  std::vector<Rule> rules;
  /// Exact per-pass, per-rank work and traffic counters. Serial runs
  /// report one rank.
  RunMetrics metrics;
  Count minsup_count = 0;
  /// End-to-end wall-clock of the run (informational: logical ranks share
  /// the host's cores, so figures use the cost model instead).
  double wall_seconds = 0.0;
  /// Structured span timeline (MiningSession fills it when a TraceSink is
  /// attached or the request sets collect_timeline; empty otherwise).
  obs::Timeline timeline;
};

/// Runs `algorithm` with `num_ranks` logical processors over `db`.
/// Deterministic: identical inputs produce identical frequent itemsets and
/// work counters on every invocation, for any rank count. When
/// `config.fault` is enabled, the run executes under the transport fault
/// schedule: it either completes with the exact same frequent itemsets
/// (recoverable faults are repaired by the communicator) or throws a
/// CommError — never returns silently wrong counts.
///
/// When `observers` is non-null, each rank thread installs a RankTracer
/// for it, so the pass loop's and the formulations' spans and per-pass
/// metrics reach the session's sinks; null is the zero-overhead path. New
/// code should prefer the MiningSession facade in pam/api/session.h,
/// which fronts every miner and wires the observers.
MiningReport MineParallel(Algorithm algorithm, const TransactionDatabase& db,
                          int num_ranks, const ParallelConfig& config,
                          obs::SessionObs* observers = nullptr);

/// The serial Apriori algorithm of the paper's Figure 1: Count
/// Distribution on one rank, where the count reduction is a no-op: the
/// MineParallel(Algorithm::kCD, db, 1, ...) run whose ParallelConfig
/// carries `config`.
MiningReport MineSerial(const TransactionDatabase& db,
                        const AprioriConfig& config);

}  // namespace pam

#endif  // PAM_PARALLEL_DRIVER_H_
