#include "pam/serve/server.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "pam/mp/fault.h"
#include "pam/obs/trace.h"

namespace pam::serve {

const char* ServeStatusName(ServeStatus status) {
  switch (status) {
    case ServeStatus::kOk:
      return "ok";
    case ServeStatus::kQueueFull:
      return "queue_full";
    case ServeStatus::kTenantInFlightExceeded:
      return "tenant_in_flight_exceeded";
    case ServeStatus::kTenantBudgetExhausted:
      return "tenant_budget_exhausted";
    case ServeStatus::kUnknownDataset:
      return "unknown_dataset";
    case ServeStatus::kInvalidRequest:
      return "invalid_request";
    case ServeStatus::kShuttingDown:
      return "shutting_down";
    case ServeStatus::kMiningFault:
      return "mining_fault";
    case ServeStatus::kDeadlineExceeded:
      return "deadline_exceeded";
    case ServeStatus::kCancelled:
      return "cancelled";
  }
  return "?";
}

bool IsRejection(ServeStatus status) {
  switch (status) {
    case ServeStatus::kQueueFull:
    case ServeStatus::kTenantInFlightExceeded:
    case ServeStatus::kTenantBudgetExhausted:
    case ServeStatus::kUnknownDataset:
    case ServeStatus::kInvalidRequest:
    case ServeStatus::kShuttingDown:
      return true;
    case ServeStatus::kOk:
    case ServeStatus::kMiningFault:
    case ServeStatus::kDeadlineExceeded:
    case ServeStatus::kCancelled:
      return false;
  }
  return false;
}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start,
                    std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// Maps a fired token's reason onto the typed response. A watchdog abort
/// is a server-side fault (the request did nothing wrong), so it lands on
/// kMiningFault like any other infrastructure failure.
void SetCancelledResponse(ServeResponse* response, CancelReason reason,
                          const std::string& detail) {
  switch (reason) {
    case CancelReason::kDeadline:
      response->status = ServeStatus::kDeadlineExceeded;
      response->error = "deadline exceeded: " + detail;
      return;
    case CancelReason::kWatchdog:
      response->status = ServeStatus::kMiningFault;
      response->error = "watchdog: no progress heartbeat: " + detail;
      return;
    case CancelReason::kCancelled:
    case CancelReason::kNone:
      break;
  }
  response->status = ServeStatus::kCancelled;
  response->error = "cancelled: " + detail;
}

/// Why `request`, `ranks` wide, cannot run on a `capacity`-rank pool, or
/// "" when it can. Each number comes from a client, so it is bounded before
/// it sizes a thread team or reaches a double-to-integer conversion.
std::string InvalidRequestReason(const MiningRequest& request, int ranks,
                                 int capacity) {
  if (request.dataset.empty()) return "request names no dataset";
  const int threads = request.config.apriori.threads_per_rank;
  if (ranks < 1 || ranks > capacity || threads < 1 || threads > capacity) {
    return "requested " + std::to_string(ranks) + " ranks of " +
           std::to_string(threads) + " threads from a " +
           std::to_string(capacity) + "-rank pool";
  }
  if (!std::isfinite(request.deadline_ms) ||
      request.deadline_ms > CancelToken::kMaxDeadlineMs) {
    return "deadline_ms must be finite and at most " +
           std::to_string(
               static_cast<std::int64_t>(CancelToken::kMaxDeadlineMs));
  }
  const double fraction = request.config.apriori.minsup_fraction;
  if (request.config.apriori.minsup_count == 0 &&
      !(fraction >= 0.0 && fraction <= 1.0)) {
    return "minsup_fraction must lie in [0, 1]";
  }
  return {};
}

void EmitCancelInstant(const char* detail) {
  obs::RankTracer* tracer = obs::CurrentTracer();
  if (tracer != nullptr) tracer->EmitInstant(obs::SpanKind::kCancel, detail);
}

}  // namespace

MiningServer::MiningServer(const ServerConfig& config)
    : config_(config),
      pool_(config.pool_ranks),
      cache_(config.cache_budget_bytes),
      results_(config.result_cache_budget_bytes, config.result_cache_ttl_ms) {
  serve_obs_.origin = std::chrono::steady_clock::now();
  const int workers = config_.workers > 0 ? config_.workers : 1;
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    workers_.emplace_back([this, w] { WorkerMain(w); });
  }
  if (config_.watchdog_ms > 0) {
    watchdog_ = std::thread([this] { WatchdogMain(); });
  }
}

MiningServer::~MiningServer() { Shutdown(); }

void MiningServer::AddTraceSink(obs::TraceSink* sink) {
  if (sink != nullptr) serve_obs_.trace_sinks.push_back(sink);
}

const TenantQuota& MiningServer::QuotaFor(const std::string& tenant) const {
  auto it = config_.tenant_quotas.find(tenant);
  return it == config_.tenant_quotas.end() ? config_.default_quota
                                           : it->second;
}

bool MiningServer::AdmitLocked(MiningRequest& request,
                               std::function<void(ServeResponse)>& done,
                               ServeResponse* rejection) {
  const auto reject = [rejection](ServeStatus status, std::string error) {
    rejection->status = status;
    rejection->error = std::move(error);
    return false;
  };
  ++stats_.submitted;
  if (!accepting_) {
    ++stats_.rejected_shutdown;
    return reject(ServeStatus::kShuttingDown, "server is shutting down");
  }
  const int ranks = IsParallel(request.algorithm) ? request.num_ranks : 1;
  if (std::string reason =
          InvalidRequestReason(request, ranks, pool_.capacity());
      !reason.empty()) {
    ++stats_.rejected_invalid;
    return reject(ServeStatus::kInvalidRequest, std::move(reason));
  }
  if (!cache_.Contains(request.dataset)) {
    ++stats_.rejected_unknown_dataset;
    return reject(ServeStatus::kUnknownDataset,
                  "unknown dataset '" + request.dataset + "'");
  }
  const TenantQuota& quota = QuotaFor(request.tenant);
  TenantUsage& usage = tenants_[request.tenant];
  if (quota.max_in_flight > 0 && usage.in_flight >= quota.max_in_flight) {
    ++stats_.rejected_tenant_in_flight;
    return reject(ServeStatus::kTenantInFlightExceeded,
                  "tenant '" + request.tenant + "' already has " +
                      std::to_string(usage.in_flight) +
                      " requests in flight");
  }
  if (quota.rank_seconds > 0.0 && usage.rank_seconds >= quota.rank_seconds) {
    ++stats_.rejected_tenant_budget;
    return reject(ServeStatus::kTenantBudgetExhausted,
                  "tenant '" + request.tenant +
                      "' exhausted its rank-seconds budget");
  }
  if (queued_ >= config_.max_queue) {
    ++stats_.rejected_queue_full;
    return reject(ServeStatus::kQueueFull,
                  "admission queue is full (" +
                      std::to_string(config_.max_queue) + " requests)");
  }

  ++stats_.admitted;
  ++usage.in_flight;
  ++usage.admitted;
  Job job;
  job.request = std::move(request);
  job.done = std::move(done);
  // Cancellation plumbing at admission (DESIGN.md §13): apply the server
  // default deadline, materialize a token when a deadline or the watchdog
  // needs one, and arm the deadline *now* — queue time counts against it,
  // and MiningSession::Run sees has_deadline and will not re-arm later.
  if (job.request.deadline_ms <= 0) {
    job.request.deadline_ms = config_.default_deadline_ms;
  }
  if (!job.request.cancel.valid() &&
      (job.request.deadline_ms > 0 || config_.watchdog_ms > 0)) {
    job.request.cancel = CancelToken::Create();
  }
  if (job.request.cancel.valid()) {
    if (job.request.deadline_ms > 0 && !job.request.cancel.has_deadline()) {
      job.request.cancel.ArmDeadlineIn(job.request.deadline_ms);
    }
    job.request.cancel.Beat();
  }
  job.enqueued_at = std::chrono::steady_clock::now();
  job.sequence = next_sequence_++;

  // Start-time fair queueing (DESIGN.md §15): the job's virtual start is
  // the later of global virtual time and its tenant's last virtual
  // finish; the tenant's clock then advances by cost/weight, where cost
  // is the rank demand — so a weight-w tenant's clock advances 1/w as
  // fast per unit of service, and it is dispatched w times as often.
  const double weight = quota.weight > 0 ? quota.weight : 1.0;
  TenantQueue& tq = queues_[job.request.tenant];
  job.vstart = std::max(virtual_time_, tq.last_vfinish);
  tq.last_vfinish = job.vstart + static_cast<double>(ranks) / weight;
  tq.jobs.push_back(std::move(job));
  ++queued_;
  stats_.queue_depth = queued_;
  if (queued_ > stats_.peak_queue_depth) stats_.peak_queue_depth = queued_;
  queue_cv_.notify_one();
  return true;
}

void MiningServer::SubmitWith(MiningRequest request,
                              std::function<void(ServeResponse)> done) {
  ServeResponse rejection;
  bool admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    admitted = AdmitLocked(request, done, &rejection);
  }
  // Rejection callbacks run on the submitter's thread, outside mu_, so a
  // callback that calls back into the server (stats, resubmit) is safe.
  if (!admitted) done(std::move(rejection));
}

std::future<ServeResponse> MiningServer::Submit(MiningRequest request) {
  auto promise = std::make_shared<std::promise<ServeResponse>>();
  std::future<ServeResponse> future = promise->get_future();
  SubmitWith(std::move(request), [promise](ServeResponse response) {
    promise->set_value(std::move(response));
  });
  return future;
}

ServeResponse MiningServer::Execute(MiningRequest request) {
  return Submit(std::move(request)).get();
}

MiningServer::Job MiningServer::PopJobLocked() {
  // Dispatch the backlogged job with the smallest virtual start time,
  // breaking ties by submission order. Tenant count is small (it is the
  // quota map's scale), so a linear scan of queue heads beats maintaining
  // a heap under churn.
  TenantQueue* best = nullptr;
  for (auto& [tenant, tq] : queues_) {
    if (tq.jobs.empty()) continue;
    if (best == nullptr ||
        tq.jobs.front().vstart < best->jobs.front().vstart ||
        (tq.jobs.front().vstart == best->jobs.front().vstart &&
         tq.jobs.front().sequence < best->jobs.front().sequence)) {
      best = &tq;
    }
  }
  Job job = std::move(best->jobs.front());
  best->jobs.pop_front();
  --queued_;
  stats_.queue_depth = queued_;
  // Global virtual time tracks the start tag of the job in service; it
  // never runs ahead of unserved work, which is what bounds how long any
  // backlogged tenant can wait (DESIGN.md §15).
  virtual_time_ = std::max(virtual_time_, job.vstart);
  return job;
}

void MiningServer::WorkerMain(int worker_id) {
  // The worker's span emitter: one serve_request span per executed
  // request, on this worker's track, timestamped from server start.
  obs::RankTracer tracer(&serve_obs_, worker_id);
  obs::ScopedTracerInstall install(&tracer);
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || queued_ > 0; });
      if (queued_ == 0) return;  // stopping, fully drained
      job = PopJobLocked();
    }
    ServeResponse response = Process(job, worker_id);
    // The callback fires only after the rank lease is back in the pool
    // and the tenant accounting is settled, so a caller observing the
    // response observes a consistent server.
    job.done(std::move(response));
  }
}

ServeResponse MiningServer::Process(Job& job, int worker_id) {
  (void)worker_id;  // track identity comes from the installed tracer
  const auto dequeued_at = std::chrono::steady_clock::now();
  ServeResponse response;
  response.queue_seconds = SecondsSince(job.enqueued_at, dequeued_at);

  const CancelToken token = job.request.cancel;
  const int ranks =
      IsParallel(job.request.algorithm) ? job.request.num_ranks : 1;
  // A request is result-cacheable when its output is a pure function of
  // (dataset, canonical config): timeline collection and fault injection
  // make the report run-specific, so those bypass the cache both ways.
  const bool cacheable = config_.result_cache &&
                         !job.request.collect_timeline &&
                         !job.request.config.fault.enabled;
  const std::uint64_t digest = cacheable ? job.request.CanonicalDigest() : 0;
  double charged = 0.0;
  bool shed_in_queue = false;
  {
    obs::ScopedSpan span(obs::SpanKind::kServeRequest,
                         static_cast<std::int64_t>(job.sequence), nullptr);
    const CancelReason queued_reason = token.Check();
    ReportHandle hit;
    if (queued_reason == CancelReason::kNone && cacheable) {
      hit = results_.Get(
          ResultKey(cache_.Generation(job.request.dataset), digest));
    }
    if (queued_reason != CancelReason::kNone) {
      // Queue-side shedding: the token fired while the request waited, so
      // it dies here — no dataset load, no rank lease, no run.
      shed_in_queue = queued_reason == CancelReason::kDeadline;
      SetCancelledResponse(&response, queued_reason, "abandoned in queue");
      EmitCancelInstant(shed_in_queue ? "expired_in_queue"
                                      : "cancelled_in_queue");
      span.Cancel();
    } else if (hit != nullptr) {
      // Result-cache hit (DESIGN.md §15): hand out the cached report
      // itself — no copy, no dataset touch, no rank lease, no tenant
      // charge. The handle pins the entry while the response holds it.
      response.report = std::move(hit);
      response.status = ServeStatus::kOk;
      response.from_result_cache = true;
      obs::RankTracer* tracer = obs::CurrentTracer();
      if (tracer != nullptr) {
        tracer->EmitInstant(obs::SpanKind::kResultCacheHit, "hit");
      }
    } else {
      Result<DatasetHandle> dataset = cache_.Get(job.request.dataset);
      if (!dataset.ok()) {
        // Registered at admission but gone or unloadable now (loader I/O
        // failure): a post-admission infrastructure failure, so it lands
        // on kMiningFault — keeping every admitted request inside
        // `ok + mining_fault + cancelled + deadline_exceeded`.
        response.status = ServeStatus::kMiningFault;
        response.error = "dataset load failed: " + dataset.status().message();
        span.Cancel();
      } else {
        response.dataset = dataset.value();
        RankLease lease = pool_.Lease(ranks);
        if (!lease.held()) {
          // Shutdown closed the pool after this request was admitted: a
          // post-admission cancellation, not an admission rejection.
          response.status = ServeStatus::kCancelled;
          response.error = "cancelled: rank pool closed";
          span.Cancel();
        } else {
          if (token.valid()) {
            token.Beat();
            std::lock_guard<std::mutex> lock(mu_);
            inflight_[job.sequence] = token;
          }
          MiningSession session;
          try {
            response.report = std::make_shared<const MiningReport>(
                session.Run(job.request, *response.dataset->db));
            response.status = ServeStatus::kOk;
          } catch (const CancelledError& e) {
            SetCancelledResponse(&response, e.reason(), e.what());
          } catch (const CommError& e) {
            // Safety net: if the token fired, a secondary kAborted unwind
            // may have outrun the CancelledError — the reason on the token
            // is still the truth.
            const CancelReason reason = token.Check();
            if (reason != CancelReason::kNone) {
              SetCancelledResponse(&response, reason, e.what());
            } else {
              response.status = ServeStatus::kMiningFault;
              response.error = std::string("transport failure: kind=") +
                               CommErrorKindName(e.kind()) + " rank=" +
                               std::to_string(e.rank()) + " peer=" +
                               std::to_string(e.peer()) + ": " + e.what();
            }
          }
          if (token.valid()) {
            std::lock_guard<std::mutex> lock(mu_);
            inflight_.erase(job.sequence);
          }
          lease.Release();
          response.service_seconds =
              SecondsSince(dequeued_at, std::chrono::steady_clock::now());
          // The machine was used whether the run completed, faulted, or
          // was cancelled mid-flight.
          charged = static_cast<double>(ranks) * response.service_seconds;
          if (cacheable && response.status == ServeStatus::kOk) {
            // Publish the freshly mined report for later identical
            // requests: the cache and the response share it. It is keyed
            // on the generation of the dataset actually mined, so a run
            // that raced a re-registration never answers for the new one.
            results_.Put(ResultKey(response.dataset->generation, digest),
                         response.report, ReportBytes(*response.report));
          }
        }
      }
    }
  }
  if (response.service_seconds == 0.0) {
    response.service_seconds =
        SecondsSince(dequeued_at, std::chrono::steady_clock::now());
  }

  std::lock_guard<std::mutex> lock(mu_);
  TenantUsage& usage = tenants_[job.request.tenant];
  --usage.in_flight;
  ++usage.dispatched;
  usage.rank_seconds += charged;
  stats_.rank_seconds_charged += charged;
  switch (response.status) {
    case ServeStatus::kOk:
      ++stats_.completed;
      break;
    case ServeStatus::kMiningFault:
      ++stats_.mining_faults;
      break;
    case ServeStatus::kDeadlineExceeded:
      ++stats_.deadline_exceeded;
      if (shed_in_queue) ++stats_.expired_in_queue;
      break;
    case ServeStatus::kCancelled:
      ++stats_.cancelled;
      break;
    default:
      break;  // unreachable: Process only produces the statuses above
  }
  return response;
}

void MiningServer::WatchdogMain() {
  const auto poll = std::chrono::duration<double, std::milli>(
      config_.watchdog_ms / 4.0 > 1.0 ? config_.watchdog_ms / 4.0 : 1.0);
  std::unique_lock<std::mutex> lock(mu_);
  while (!watchdog_stop_) {
    watchdog_cv_.wait_for(lock, poll);
    if (watchdog_stop_) break;
    for (auto& [sequence, token] : inflight_) {
      // Heartbeats come only from genuine progress points, so a token
      // that stopped beating is a world where *no* rank is advancing.
      if (token.Check() == CancelReason::kNone &&
          token.MillisSinceBeat() > config_.watchdog_ms) {
        token.Cancel(CancelReason::kWatchdog);
        ++stats_.watchdog_fired;
      }
    }
  }
}

ServerStats MiningServer::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats stats = stats_;
  stats.queue_depth = queued_;
  stats.cache_hits = cache_.Hits();
  stats.cache_misses = cache_.Misses();
  stats.cache_evictions = cache_.Evictions();
  stats.cache_resident_bytes = cache_.ResidentBytes();
  stats.result_hits = results_.Hits();
  stats.result_misses = results_.Misses();
  stats.result_evictions = results_.Evictions();
  stats.result_resident_bytes = results_.ResidentBytes();
  stats.leased_ranks = pool_.capacity() - pool_.Available();
  return stats;
}

TenantUsage MiningServer::UsageFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantUsage() : it->second;
}

void MiningServer::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    accepting_ = false;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
  // Only now stop the watchdog: it stays armed through the drain, so a
  // request stalling during shutdown still becomes a typed abort instead
  // of wedging this join.
  {
    std::lock_guard<std::mutex> lock(mu_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();
  // Workers drained every queued request and returned every lease; close
  // the pool so any stray Lease call fails fast instead of blocking.
  pool_.Close();
}

}  // namespace pam::serve
