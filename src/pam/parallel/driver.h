#ifndef PAM_PARALLEL_DRIVER_H_
#define PAM_PARALLEL_DRIVER_H_

#include "pam/obs/trace.h"
#include "pam/parallel/algorithms.h"
#include "pam/parallel/metrics.h"
#include "pam/tdb/database.h"

namespace pam {

/// Result of a parallel mining run.
struct ParallelResult {
  /// Globally frequent itemsets (identical on every rank; rank 0's copy).
  FrequentItemsets frequent;
  /// Exact per-pass, per-rank work and traffic counters.
  RunMetrics metrics;
  Count minsup_count = 0;
  /// End-to-end wall-clock of the run (informational: logical ranks share
  /// the host's cores, so figures use the cost model instead).
  double wall_seconds = 0.0;
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
ParallelResult MineParallel(Algorithm algorithm,
                            const TransactionDatabase& db, int num_ranks,
                            const ParallelConfig& config,
                            obs::SessionObs* observers = nullptr);

}  // namespace pam

#endif  // PAM_PARALLEL_DRIVER_H_
