#ifndef PAM_SERVE_SERVER_H_
#define PAM_SERVE_SERVER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "pam/api/session.h"
#include "pam/mp/rank_pool.h"
#include "pam/serve/dataset_cache.h"
#include "pam/serve/result_cache.h"

namespace pam::serve {

/// Outcome of one served request. Rejections are decided synchronously at
/// Submit (admission control); everything after admission terminates with
/// one of the typed post-admission statuses — never an exception, never
/// silently wrong counts (the library's exactness contract, DESIGN.md §8).
enum class ServeStatus {
  kOk,
  /// Admission rejections (the request never ran):
  kQueueFull,              // bounded request queue at capacity
  kTenantInFlightExceeded, // tenant at its max concurrent admitted requests
  kTenantBudgetExhausted,  // tenant spent its rank-seconds budget
  kUnknownDataset,         // dataset id not registered with the cache
  kInvalidRequest,         // malformed (no dataset, or a rank, thread,
                           // deadline or support value out of bounds)
  kShuttingDown,           // server no longer accepting
  /// Post-admission typed failures (DESIGN.md §13):
  kMiningFault,            // run died with CommError (fault injection),
                           // a watchdog abort, or a dataset load failure
  kDeadlineExceeded,       // the request's deadline fired (queued or
                           // mid-run); partial work was discarded
  kCancelled,              // the caller's CancelToken fired, or shutdown
                           // overtook the request after admission
};

/// Stable lowercase name ("ok", "queue_full", ...).
const char* ServeStatusName(ServeStatus status);

/// True for the admission-control statuses (request was never executed).
bool IsRejection(ServeStatus status);

/// Per-tenant admission limits. Zero means unlimited.
struct TenantQuota {
  /// Max requests a tenant may have admitted-but-unfinished at once.
  int max_in_flight = 0;
  /// Rank-seconds budget: every completed request is charged
  /// leased_ranks x service_wall_seconds; once a tenant's cumulative
  /// charge reaches this, further submits are rejected.
  double rank_seconds = 0.0;
  /// Fair-queueing weight (DESIGN.md §15): under contention a tenant
  /// receives service in proportion to its weight — a weight-3 tenant is
  /// dispatched ~3x as often as a weight-1 tenant submitting equal-cost
  /// requests. Values <= 0 are treated as 1.
  double weight = 1.0;
};

/// Server shape: how much machine it serves and how much it will queue.
struct ServerConfig {
  /// Logical mining ranks the server time-shares across requests (the
  /// RankPool capacity). A request leases its num_ranks out of this.
  int pool_ranks = 8;
  /// Worker threads executing admitted requests (each runs one request at
  /// a time; more workers than pool ranks just park in the lease FIFO).
  int workers = 4;
  /// Bounded admission queue: submits beyond this are rejected kQueueFull.
  std::size_t max_queue = 64;
  /// Quota applied to tenants without an explicit entry below.
  TenantQuota default_quota;
  std::map<std::string, TenantQuota> tenant_quotas;
  /// Deadline applied to requests that carry none, in milliseconds
  /// (0 = none). Armed at admission, so queue time counts against it.
  double default_deadline_ms = 0;
  /// Resident-bytes budget of the dataset cache (0 = unlimited): over
  /// budget, LRU unpinned datasets are evicted, and a dataset that cannot
  /// fit is served load-through uncached (graceful degradation).
  std::size_t cache_budget_bytes = 0;
  /// Per-request progress watchdog (0 = disabled): a monitor thread
  /// cancels (reason kWatchdog) any executing request whose token has not
  /// seen a progress heartbeat for this long, converting a stalled world
  /// into a typed kMiningFault response instead of a hung rank lease.
  double watchdog_ms = 0;
  /// Serve finished MiningReports from the result cache (DESIGN.md §15):
  /// a request whose (dataset registration, CanonicalDigest) matches a
  /// cached report is answered without touching the dataset or leasing a
  /// rank. Off by default — hits do not re-mine, so responses stop
  /// carrying a fresh dataset handle and per-run metrics, which callers
  /// must opt into.
  bool result_cache = false;
  /// Resident-bytes budget of the result cache (0 = unlimited).
  std::size_t result_cache_budget_bytes = 0;
  /// Idle TTL of cached results in milliseconds (0 = never expires).
  double result_cache_ttl_ms = 0;
};

/// Everything the server says about one request.
struct ServeResponse {
  ServeStatus status = ServeStatus::kOk;
  /// Human-readable detail for any non-kOk status.
  std::string error;
  /// The mining result; null unless the status is kOk. A fresh mine and
  /// every later result-cache hit of it share this one report.
  ReportHandle report;
  /// The cached dataset served (kOk and kMiningFault; lets callers verify
  /// cross-request sharing — same dataset id means the same handle and the
  /// same underlying database).
  DatasetHandle dataset;
  /// Seconds spent queued before a worker picked the request up.
  double queue_seconds = 0.0;
  /// Seconds from dequeue to completion (rank-lease wait + mining run).
  double service_seconds = 0.0;
  /// True when the report was served from the result cache: no dataset
  /// touch, no rank lease, no fresh metrics — the report is the cached
  /// run's own object, so its itemsets and rules are the mined ones.
  bool from_result_cache = false;

  bool ok() const { return status == ServeStatus::kOk; }
  bool rejected() const { return IsRejection(status); }
};

/// Monotonic server counters (snapshot). Once the server has drained,
/// `submitted == admitted + TotalRejected()` and every admitted request
/// is accounted exactly once:
/// `admitted == completed + mining_faults + cancelled + deadline_exceeded`.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t completed = 0;      // kOk responses
  std::uint64_t mining_faults = 0;  // kMiningFault responses
  std::uint64_t cancelled = 0;          // kCancelled responses
  std::uint64_t deadline_exceeded = 0;  // kDeadlineExceeded responses
  /// Of deadline_exceeded: shed at dequeue, before leasing any rank.
  std::uint64_t expired_in_queue = 0;
  /// Times the watchdog cancelled a stalled request's token.
  std::uint64_t watchdog_fired = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_tenant_in_flight = 0;
  std::uint64_t rejected_tenant_budget = 0;
  std::uint64_t rejected_unknown_dataset = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  /// Result-cache activity (all zero unless ServerConfig::result_cache).
  /// A hit is still a completed request — `completed` counts it — it just
  /// consumed no rank lease, which `pool().LeasesGranted()` can pin down.
  std::uint64_t result_hits = 0;
  std::uint64_t result_misses = 0;
  std::uint64_t result_evictions = 0;
  std::size_t cache_resident_bytes = 0;   // dataset cache residency
  std::size_t result_resident_bytes = 0;  // result cache residency
  std::size_t queue_depth = 0;       // current
  std::size_t peak_queue_depth = 0;
  int leased_ranks = 0;              // current (pool capacity - available)
  double rank_seconds_charged = 0.0;

  std::uint64_t TotalRejected() const {
    return rejected_queue_full + rejected_tenant_in_flight +
           rejected_tenant_budget + rejected_unknown_dataset +
           rejected_invalid + rejected_shutdown;
  }
};

/// A tenant's live accounting. Once the server has drained, summing
/// `rank_seconds` over all tenants reproduces
/// ServerStats::rank_seconds_charged exactly, and summing `dispatched`
/// reproduces `admitted` — the per-tenant service-share invariant the
/// serve suite asserts.
struct TenantUsage {
  int in_flight = 0;
  std::uint64_t admitted = 0;
  /// Jobs a worker has picked up and settled for this tenant.
  std::uint64_t dispatched = 0;
  double rank_seconds = 0.0;
};

/// Mining-as-a-service over the MiningSession facade: a long-lived,
/// multi-tenant server that accepts concurrent MiningRequests and
/// schedules them over one shared rank pool.
///
///   pam::serve::ServerConfig cfg;        // 8 ranks, 4 workers
///   pam::serve::MiningServer server(cfg);
///   server.datasets().Register("retail", [] { return pam::ReadBinary(...); });
///   pam::MiningRequest req;
///   req.tenant = "acme"; req.dataset = "retail";
///   req.algorithm = pam::MiningAlgorithm::kHD; req.num_ranks = 4;
///   pam::serve::ServeResponse r = server.Submit(std::move(req)).get();
///
/// Admission control happens synchronously in Submit: a request is either
/// admitted (future resolves when it finishes) or rejected with a typed
/// ServeStatus (future is already resolved). Admitted requests wait in a
/// bounded queue scheduled by start-time weighted fair queueing over the
/// tenants (DESIGN.md §15): each tenant owns a FIFO of its jobs tagged
/// with virtual start/finish times, workers always dispatch the eligible
/// job with the smallest virtual start, and a tenant's virtual clock
/// advances by cost/weight per job — so under saturation tenants receive
/// service shares proportional to their TenantQuota::weight, while any
/// backlogged tenant is dispatched within a bounded number of rounds
/// (never starved). Dispatched jobs lease their ranks from the shared
/// RankPool (FIFO, so wide requests are never starved), run through a
/// per-request MiningSession over the cached dataset, and are charged to
/// their tenant's rank-seconds budget.
///
/// Results are byte-identical to a solo MiningSession::Run of the same
/// request over the same database — the server adds scheduling, never
/// arithmetic. Requests carrying a FaultConfig run under fault injection
/// exactly like MineParallel: recoverable faults are repaired, and an
/// unrecoverable one yields a typed kMiningFault response (the worker and
/// its rank lease always survive and are returned).
///
/// Deadlines and cancellation (DESIGN.md §13): a request's deadline_ms
/// (or the server default) is armed on its CancelToken at admission, so
/// queue time counts; a request whose token fires while queued is shed at
/// dequeue without leasing ranks, and one that fires mid-run unwinds
/// cooperatively at the next check point. Either way the response is
/// typed (kDeadlineExceeded / kCancelled), the lease is returned, and the
/// tenant is charged for the machine time actually used. A configured
/// watchdog additionally cancels any executing request whose heartbeat
/// stops (kWatchdog -> kMiningFault).
///
/// Thread-safe: Submit may be called from any number of client threads.
class MiningServer {
 public:
  explicit MiningServer(const ServerConfig& config);
  ~MiningServer();
  MiningServer(const MiningServer&) = delete;
  MiningServer& operator=(const MiningServer&) = delete;

  /// The dataset catalog; register datasets before (or while) serving.
  DatasetCache& datasets() { return cache_; }

  /// Trace sinks observe one kServeRequest span per executed request
  /// (track = worker id, timestamps from server construction). Attach
  /// before the first Submit; sinks must outlive the server.
  void AddTraceSink(obs::TraceSink* sink);

  /// Submits a request. The returned future always resolves: immediately
  /// for rejections, at completion otherwise.
  std::future<ServeResponse> Submit(MiningRequest request);

  /// Callback form of Submit, for transport front-ends (pam/serve/
  /// net_server.h) that push responses into a connection rather than
  /// joining futures. `done` is invoked exactly once, from the submitting
  /// thread for rejections (after admission bookkeeping, never under the
  /// server lock) or from a worker thread otherwise; it must not block
  /// for long and may call back into the server.
  void SubmitWith(MiningRequest request,
                  std::function<void(ServeResponse)> done);

  /// Blocking convenience: Submit + wait.
  ServeResponse Execute(MiningRequest request);

  ServerStats Stats() const;
  TenantUsage UsageFor(const std::string& tenant) const;
  const RankPool& pool() const { return pool_; }

  /// Stops admission (further submits are rejected kShuttingDown), drains
  /// the queue and all in-flight requests, and joins the workers. Every
  /// rank lease is back in the pool when this returns. Idempotent; the
  /// destructor calls it.
  void Shutdown();

 private:
  struct Job {
    MiningRequest request;
    std::function<void(ServeResponse)> done;
    std::chrono::steady_clock::time_point enqueued_at;
    std::uint64_t sequence = 0;
    /// SFQ virtual start time of this job (DESIGN.md §15).
    double vstart = 0.0;
  };

  /// One tenant's backlog plus its virtual clock. `last_vfinish` persists
  /// while the tenant is idle, so a tenant cannot bank credit by pausing:
  /// re-arrival starts at max(virtual_time_, last_vfinish).
  struct TenantQueue {
    std::deque<Job> jobs;
    double last_vfinish = 0.0;
  };

  void WorkerMain(int worker_id);
  void WatchdogMain();
  ServeResponse Process(Job& job, int worker_id);
  const TenantQuota& QuotaFor(const std::string& tenant) const;
  /// Admission + WFQ enqueue under mu_. On rejection, fills `rejection`
  /// and leaves `done` untouched (the caller invokes it lock-free).
  bool AdmitLocked(MiningRequest& request,
                   std::function<void(ServeResponse)>& done,
                   ServeResponse* rejection);
  /// Dequeues the job with the smallest vstart (caller holds mu_;
  /// queued_ must be > 0). Advances virtual_time_.
  Job PopJobLocked();

  const ServerConfig config_;
  RankPool pool_;
  DatasetCache cache_;
  ResultCache results_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::condition_variable watchdog_cv_;
  std::map<std::string, TenantQueue> queues_;
  std::size_t queued_ = 0;
  /// Global SFQ virtual time: the vstart of the last dispatched job.
  double virtual_time_ = 0.0;
  std::map<std::string, TenantUsage> tenants_;
  /// Tokens of requests currently executing a mining run, keyed by job
  /// sequence — the watchdog's scan set.
  std::map<std::uint64_t, CancelToken> inflight_;
  ServerStats stats_;
  std::uint64_t next_sequence_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  /// Set only after the workers drained, so the watchdog can still abort
  /// a request that stalls while shutdown is draining the queue.
  bool watchdog_stop_ = false;

  obs::SessionObs serve_obs_;
  std::vector<std::thread> workers_;
  std::thread watchdog_;
};

}  // namespace pam::serve

#endif  // PAM_SERVE_SERVER_H_
