#ifndef PAM_API_SESSION_H_
#define PAM_API_SESSION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pam/obs/trace.h"
#include "pam/parallel/driver.h"

namespace pam {

/// Every mining formulation behind the unified session API: the serial
/// baseline plus the six parallel formulations of Algorithm.
enum class MiningAlgorithm {
  kSerial,
  kCD,
  kDD,
  kDDComm,
  kIDD,
  kHD,
  kHPA,
};

/// Display name ("serial", "CD", ...).
std::string MiningAlgorithmName(MiningAlgorithm algorithm);

/// Parses the CLI spelling ("serial", "cd", "ddcomm", ...). Returns false
/// on an unknown name.
bool ParseMiningAlgorithm(const std::string& name, MiningAlgorithm* out);

bool IsParallel(MiningAlgorithm algorithm);

/// The parallel formulation behind a MiningAlgorithm. Serial Apriori is
/// Count Distribution on one rank, so kSerial maps to kCD.
Algorithm ToParallelAlgorithm(MiningAlgorithm algorithm);

/// The MiningAlgorithm wrapping a parallel formulation.
MiningAlgorithm FromParallelAlgorithm(Algorithm algorithm);

/// Everything a mining run needs: what to mine, how, and with how many
/// logical processors. One request shape for serial and parallel runs.
struct MiningRequest {
  MiningAlgorithm algorithm = MiningAlgorithm::kSerial;
  /// Logical processors for parallel formulations (ignored for kSerial).
  int num_ranks = 1;
  /// Unified mining configuration (config.apriori carries the knobs the
  /// serial algorithm shares with the parallel formulations).
  ParallelConfig config;
  /// Also derive association rules from the frequent itemsets.
  bool generate_rules = false;
  /// Minimum rule confidence in [0, 1] (only with generate_rules).
  double min_confidence = 0.5;
  /// Populate MiningReport::timeline even when no TraceSink is attached.
  /// Off by default: a session with no observers and no timeline request
  /// runs the exact zero-overhead path of the legacy entry points.
  bool collect_timeline = false;
  /// Multi-tenant serving identity (pam/serve/server.h): the tenant the
  /// request is billed to and the registered dataset id it mines. Ignored
  /// by direct MiningSession::Run calls, which are handed their database
  /// explicitly; the MiningServer resolves `dataset` through its cache and
  /// enforces per-`tenant` admission quotas.
  std::string tenant;
  std::string dataset;
  /// End-to-end deadline for the run, in milliseconds (0 = none). Direct
  /// MiningSession::Run calls arm it at run start; the MiningServer arms
  /// it at admission, so queue time counts against it. A fired deadline
  /// surfaces as CancelledError{kDeadline} from Run, or a typed
  /// kDeadlineExceeded response from the server.
  double deadline_ms = 0;
  /// Optional caller-held cancellation token. Cancel() it from any thread
  /// to abort the run cooperatively at the next check point; combines with
  /// deadline_ms (whichever fires first wins). Invalid (default) means the
  /// session creates one internally only if deadline_ms > 0.
  CancelToken cancel;

  /// Digest of the *result-affecting* configuration, normalized so that
  /// equivalent requests hash equal regardless of how they were spelled:
  /// only fields that change the mined output contribute (minsup — the
  /// explicit count when set, else the fraction — max_k, and the rule
  /// knobs when generate_rules is on). Algorithm choice, rank/thread
  /// counts, tree shape, page sizes, and balancing flags are performance
  /// knobs — every formulation produces byte-identical results (the
  /// library's exactness contract) — so a serial and an 8-rank HD run of
  /// the same mining problem share a digest. Keyed with the dataset's
  /// registration, this is the result-cache key (pam/serve/result_cache.h).
  std::uint64_t CanonicalDigest() const;
};

/// The unified mining entry point: configure observers once, then run any
/// number of requests through them.
///
///   pam::MiningSession session;
///   pam::obs::ChromeTraceWriter trace;
///   session.AddTraceSink(&trace);
///   pam::MiningReport report = session.Run(request, db);
///   trace.WriteFile("run.trace.json");  // load in chrome://tracing
///
/// Sinks are borrowed, not owned, and must outlive the session's Run
/// calls; the provided sinks (ChromeTraceWriter, JsonMetricsWriter,
/// TimelineSink) are thread-safe as required. With no sinks attached and
/// collect_timeline off, a run does no clock reads and no allocation on
/// the subset-counting hot path — the same path as a direct MineParallel
/// call, which every request goes through (serial as CD on one rank).
///
/// Runs under fault injection behave like MineParallel: recoverable
/// faults are repaired (and visible as fault_retry trace events), and
/// unrecoverable ones throw CommError.
class MiningSession {
 public:
  void AddTraceSink(obs::TraceSink* sink);
  void AddMetricsSink(obs::MetricsSink* sink);

  MiningReport Run(const MiningRequest& request,
                   const TransactionDatabase& db);

 private:
  std::vector<obs::TraceSink*> trace_sinks_;
  std::vector<obs::MetricsSink*> metrics_sinks_;
};

}  // namespace pam

#endif  // PAM_API_SESSION_H_
