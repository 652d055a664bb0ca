// Deadlines, cooperative cancellation, and graceful degradation
// (DESIGN.md §13): the CancelToken itself, cancellation through the
// MiningSession facade, every server-side abort path (deadline mid-run,
// cancel while queued, client cancel mid-run, watchdog fire, shutdown
// during cancellation), and the dataset cache's budget/pinning
// behaviour — each asserting the typed response, balanced admission
// counters, and a whole rank pool afterwards.

#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pam/mp/fault.h"
#include "pam/serve/server.h"
#include "pam/util/cancel.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using serve::DatasetCache;
using serve::DatasetHandle;
using serve::MiningServer;
using serve::ServeResponse;
using serve::ServeStatus;
using serve::ServerConfig;
using serve::ServerStats;

/// Asserts the server's post-drain accounting invariant: every submit is
/// admitted or rejected, and every admitted request resolved with exactly
/// one of the four post-admission statuses.
void ExpectBalancedStats(const ServerStats& stats) {
  EXPECT_EQ(stats.submitted, stats.admitted + stats.TotalRejected());
  EXPECT_EQ(stats.admitted, stats.completed + stats.mining_faults +
                                stats.cancelled + stats.deadline_exceeded);
}

/// Asserts every lease came home.
void ExpectPoolWhole(MiningServer& server, const ServerConfig& config) {
  EXPECT_EQ(server.pool().Available(), config.pool_ranks);
  EXPECT_EQ(server.pool().LeasesOutstanding(), 0);
}

/// A request over `dataset` slowed by an always-stall fault plan: every
/// message delivery sleeps `stall_ms`, so the run reliably outlives short
/// deadlines without ever actually failing.
MiningRequest SlowRequest(const std::string& dataset, int ranks,
                          int stall_ms) {
  MiningRequest request;
  request.tenant = "slow";
  request.dataset = dataset;
  request.algorithm = MiningAlgorithm::kCD;
  request.num_ranks = ranks;
  request.config.apriori.minsup_fraction = 0.03;
  request.config.fault =
      FaultConfig::Uniform(FaultKind::kStall, 1.0, /*seed=*/1);
  request.config.fault.stall_ticks_ms = stall_ms;
  request.config.fault.recv_timeout_ms = 120000;
  return request;
}

TEST(CancelTokenTest, NullTokenNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.valid());
  EXPECT_FALSE(token.has_deadline());
  EXPECT_EQ(token.Check(), CancelReason::kNone);
  token.Cancel();              // no-op
  token.ArmDeadlineIn(0.001);  // no-op
  token.Beat();
  EXPECT_NO_THROW(token.Checkpoint());
  EXPECT_EQ(token.Check(), CancelReason::kNone);
  EXPECT_EQ(token.MillisSinceBeat(), 0.0);
}

TEST(CancelTokenTest, FirstReasonWinsAndLatches) {
  CancelToken token = CancelToken::Create();
  EXPECT_TRUE(token.valid());
  EXPECT_EQ(token.Check(), CancelReason::kNone);
  token.Cancel(CancelReason::kCancelled);
  token.Cancel(CancelReason::kWatchdog);  // loses: first reason wins
  EXPECT_EQ(token.Check(), CancelReason::kCancelled);
  EXPECT_THROW(token.ThrowIfCancelled(3), CancelledError);
  try {
    token.Checkpoint(3);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
    EXPECT_EQ(e.rank(), 3);
  }
}

TEST(CancelTokenTest, DeadlineLatchesAndOnlyTightens) {
  CancelToken token = CancelToken::Create();
  EXPECT_FALSE(token.has_deadline());
  token.ArmDeadlineIn(60000.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_EQ(token.Check(), CancelReason::kNone);  // an hour away
  // Arming later than the current deadline is a no-op; arming earlier
  // tightens. An already-passed deadline latches kDeadline on Check.
  token.ArmDeadlineIn(-1.0);
  EXPECT_EQ(token.Check(), CancelReason::kDeadline);
  EXPECT_EQ(token.Check(), CancelReason::kDeadline);  // latched
  // A copy shares the same state.
  CancelToken copy = token;
  EXPECT_EQ(copy.Check(), CancelReason::kDeadline);
}

TEST(CancelTokenTest, BeatFeedsWatchdogClock) {
  CancelToken token = CancelToken::Create();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_GT(token.MillisSinceBeat(), 0.0);
  token.Beat();
  EXPECT_LT(token.MillisSinceBeat(), 5000.0);
}

TEST(SessionCancelTest, ExpiredDeadlineThrowsSerialAndParallel) {
  const TransactionDatabase db = testing::TinyQuestDb();
  for (MiningAlgorithm algorithm :
       {MiningAlgorithm::kSerial, MiningAlgorithm::kCD}) {
    MiningRequest request;
    request.algorithm = algorithm;
    request.num_ranks = 2;
    request.config.apriori.minsup_fraction = 0.03;
    request.deadline_ms = 0.0001;  // expired by the first check point
    MiningSession session;
    try {
      session.Run(request, db);
      FAIL() << "expected CancelledError for "
             << MiningAlgorithmName(algorithm);
    } catch (const CancelledError& e) {
      EXPECT_EQ(e.reason(), CancelReason::kDeadline);
    }
  }
}

TEST(SessionCancelTest, PreCancelledTokenThrowsCancelled) {
  const TransactionDatabase db = testing::TinyQuestDb();
  MiningRequest request;
  request.algorithm = MiningAlgorithm::kIDD;
  request.num_ranks = 2;
  request.config.apriori.minsup_fraction = 0.03;
  request.cancel = CancelToken::Create();
  request.cancel.Cancel();
  MiningSession session;
  try {
    session.Run(request, db);
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_EQ(e.reason(), CancelReason::kCancelled);
  }
}

TEST(SessionCancelTest, GenerousDeadlineStaysByteIdentical) {
  // A deadline that never fires must not perturb the arithmetic: the
  // token threads through every pass and counting stride, but the counts
  // are the solo counts.
  const TransactionDatabase db = testing::SmallQuestDb();
  AprioriConfig cfg;
  cfg.minsup_fraction = 0.02;
  const auto reference = testing::SerialReference(db, cfg);
  for (MiningAlgorithm algorithm :
       {MiningAlgorithm::kSerial, MiningAlgorithm::kCD,
        MiningAlgorithm::kIDD, MiningAlgorithm::kHD}) {
    MiningRequest request;
    request.algorithm = algorithm;
    request.num_ranks = 4;
    request.config.apriori.minsup_fraction = 0.02;
    request.config.apriori.threads_per_rank = 2;
    request.deadline_ms = 600000.0;
    MiningSession session;
    EXPECT_EQ(testing::Flatten(session.Run(request, db).frequent),
              reference)
        << MiningAlgorithmName(algorithm);
  }
}

TEST(ServeCancelTest, DeadlineMidRunIsTypedAndReturnsLease) {
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 1;
  MiningServer server(config);
  server.datasets().RegisterLoaded("tiny", testing::TinyQuestDb());

  // Every message stalls 300ms, so the run cannot finish inside 100ms;
  // the deadline fires mid-run and unwinds through the comm waits.
  MiningRequest request = SlowRequest("tiny", /*ranks=*/3, /*stall_ms=*/300);
  request.deadline_ms = 100.0;
  ServeResponse response = server.Execute(std::move(request));
  EXPECT_EQ(response.status, ServeStatus::kDeadlineExceeded);
  EXPECT_FALSE(response.error.empty());
  EXPECT_GT(response.service_seconds, 0.0);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.expired_in_queue, 0u);  // it was running, not queued
  ExpectBalancedStats(stats);
  server.Shutdown();
  ExpectPoolWhole(server, config);
}

TEST(ServeCancelTest, TokenFiredWhileQueuedShedsBeforeLeasing) {
  // One worker, held inside a gated dataset load; everything behind it
  // waits in the queue. A queued request whose token fires is shed at
  // dequeue — no rank lease, no dataset load, typed response.
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 1;
  MiningServer server(config);
  auto gate_db = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate(gate_db->get_future());
  server.datasets().Register("gated", [gate]() -> Result<TransactionDatabase> {
    gate.wait();
    return testing::TinyQuestDb();
  });
  server.datasets().RegisterLoaded("tiny", testing::TinyQuestDb());

  MiningRequest blocker;
  blocker.tenant = "t";
  blocker.dataset = "gated";
  blocker.algorithm = MiningAlgorithm::kSerial;
  blocker.config.apriori.minsup_fraction = 0.03;
  std::future<ServeResponse> blocked = server.Submit(std::move(blocker));

  // Queued behind the blocker: one explicitly cancelled, one whose
  // deadline expires while it waits.
  MiningRequest cancelled_req;
  cancelled_req.tenant = "t";
  cancelled_req.dataset = "tiny";
  cancelled_req.algorithm = MiningAlgorithm::kSerial;
  cancelled_req.config.apriori.minsup_fraction = 0.03;
  cancelled_req.cancel = CancelToken::Create();
  CancelToken cancel_handle = cancelled_req.cancel;
  std::future<ServeResponse> cancelled = server.Submit(std::move(cancelled_req));

  MiningRequest expiring;
  expiring.tenant = "t";
  expiring.dataset = "tiny";
  expiring.algorithm = MiningAlgorithm::kSerial;
  expiring.config.apriori.minsup_fraction = 0.03;
  expiring.deadline_ms = 20.0;  // armed at admission: queue time counts
  std::future<ServeResponse> expired = server.Submit(std::move(expiring));

  cancel_handle.Cancel();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate_db->set_value();

  EXPECT_EQ(blocked.get().status, ServeStatus::kOk);
  ServeResponse r1 = cancelled.get();
  EXPECT_EQ(r1.status, ServeStatus::kCancelled);
  ServeResponse r2 = expired.get();
  EXPECT_EQ(r2.status, ServeStatus::kDeadlineExceeded);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.deadline_exceeded, 1u);
  EXPECT_EQ(stats.expired_in_queue, 1u);
  ExpectBalancedStats(stats);
  server.Shutdown();
  ExpectPoolWhole(server, config);
}

TEST(ServeCancelTest, ClientCancelMidRunIsTypedAndReturnsLease) {
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 1;
  MiningServer server(config);
  server.datasets().RegisterLoaded("tiny", testing::TinyQuestDb());

  MiningRequest request = SlowRequest("tiny", /*ranks=*/3, /*stall_ms=*/200);
  request.cancel = CancelToken::Create();
  CancelToken handle = request.cancel;
  std::future<ServeResponse> future = server.Submit(std::move(request));
  // Let the run get under way (a ring round takes >= 200ms), then pull
  // the plug from the client side — mid-pass, mid-collective.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  handle.Cancel();

  ServeResponse response = future.get();
  EXPECT_EQ(response.status, ServeStatus::kCancelled);
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cancelled, 1u);
  ExpectBalancedStats(stats);
  server.Shutdown();
  ExpectPoolWhole(server, config);
}

TEST(ServeCancelTest, WatchdogConvertsStallIntoTypedFault) {
  // Heartbeats come only from progress points, and an all-stall fault
  // plan keeps the world between them for >= 600ms at a time — so a
  // 100ms watchdog sees a flatlined token and fires kWatchdog, which the
  // server reports as an infrastructure kMiningFault. Without the
  // watchdog this run would simply take ~seconds; with it the lease is
  // back long before that.
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 1;
  config.watchdog_ms = 100.0;
  MiningServer server(config);
  server.datasets().RegisterLoaded("tiny", testing::TinyQuestDb());

  ServeResponse response =
      server.Execute(SlowRequest("tiny", /*ranks=*/3, /*stall_ms=*/600));
  EXPECT_EQ(response.status, ServeStatus::kMiningFault);
  EXPECT_NE(response.error.find("watchdog"), std::string::npos)
      << response.error;

  const ServerStats stats = server.Stats();
  EXPECT_GE(stats.watchdog_fired, 1u);
  EXPECT_EQ(stats.mining_faults, 1u);
  ExpectBalancedStats(stats);
  server.Shutdown();
  ExpectPoolWhole(server, config);
}

TEST(ServeCancelTest, WatchdogLeavesHealthyRunsAlone) {
  // A clean fast run beats at every pass boundary and counting stride;
  // a generous watchdog must never fire on it.
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 2;
  config.watchdog_ms = 60000.0;
  MiningServer server(config);
  const TransactionDatabase db = testing::SmallQuestDb();
  server.datasets().RegisterLoaded("small", TransactionDatabase(db));
  AprioriConfig cfg;
  cfg.minsup_fraction = 0.02;
  const auto reference = testing::SerialReference(db, cfg);

  MiningRequest request;
  request.tenant = "t";
  request.dataset = "small";
  request.algorithm = MiningAlgorithm::kHD;
  request.num_ranks = 4;
  request.config.apriori.minsup_fraction = 0.02;
  ServeResponse response = server.Execute(std::move(request));
  ASSERT_EQ(response.status, ServeStatus::kOk);
  EXPECT_EQ(testing::Flatten(response.report->frequent), reference);
  EXPECT_EQ(server.Stats().watchdog_fired, 0u);
  server.Shutdown();
  ExpectPoolWhole(server, config);
}

TEST(ServeCancelTest, ShutdownDuringCancellationDrainsTyped) {
  // Queue several requests behind a gated load, cancel some of them,
  // then shut down while the drain is in flight: every future resolves
  // with a typed status, the counters balance, and the pool is whole.
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 1;
  MiningServer server(config);
  auto gate_db = std::make_shared<std::promise<void>>();
  std::shared_future<void> gate(gate_db->get_future());
  server.datasets().Register("gated", [gate]() -> Result<TransactionDatabase> {
    gate.wait();
    return testing::TinyQuestDb();
  });
  server.datasets().RegisterLoaded("tiny", testing::TinyQuestDb());

  MiningRequest blocker;
  blocker.tenant = "t";
  blocker.dataset = "gated";
  blocker.algorithm = MiningAlgorithm::kSerial;
  blocker.config.apriori.minsup_fraction = 0.03;
  std::future<ServeResponse> blocked = server.Submit(std::move(blocker));

  std::vector<std::future<ServeResponse>> queued;
  std::vector<CancelToken> handles;
  for (int i = 0; i < 6; ++i) {
    MiningRequest request;
    request.tenant = "t";
    request.dataset = "tiny";
    request.algorithm = MiningAlgorithm::kCD;
    request.num_ranks = 2;
    request.config.apriori.minsup_fraction = 0.03;
    request.cancel = CancelToken::Create();
    handles.push_back(request.cancel);
    queued.push_back(server.Submit(std::move(request)));
  }
  for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].Cancel();
  gate_db->set_value();
  server.Shutdown();  // drains the whole queue before returning

  EXPECT_EQ(blocked.get().status, ServeStatus::kOk);
  int ok = 0, cancelled = 0;
  for (auto& future : queued) {
    const ServeResponse response = future.get();
    if (response.status == ServeStatus::kOk) ++ok;
    else if (response.status == ServeStatus::kCancelled) ++cancelled;
    else ADD_FAILURE() << serve::ServeStatusName(response.status) << ": "
                       << response.error;
  }
  EXPECT_EQ(ok, 3);
  EXPECT_EQ(cancelled, 3);
  ExpectBalancedStats(server.Stats());
  ExpectPoolWhole(server, config);
  EXPECT_EQ(server.Stats().queue_depth, 0u);
}

TEST(CacheBudgetTest, LruEvictionKeepsResidencyUnderBudget) {
  // Measure one dataset's resident CSR, then budget for ~1.5 of them:
  // loading a second dataset must evict the first, never exceed budget.
  std::size_t wire = 0;
  {
    DatasetCache probe;
    probe.Register("a", [] { return Result<TransactionDatabase>(
                                 testing::TinyQuestDb()); });
    wire = probe.Get("a").value()->resident_bytes;
    ASSERT_GT(wire, 0u);
  }

  DatasetCache cache(/*budget_bytes=*/wire + wire / 2);
  for (const char* id : {"a", "b", "c"}) {
    cache.Register(id, [] { return Result<TransactionDatabase>(
                                testing::TinyQuestDb()); });
  }
  { DatasetHandle a = cache.Get("a").value(); }
  EXPECT_EQ(cache.ResidentBytes(), wire);
  { DatasetHandle b = cache.Get("b").value(); }  // evicts a
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_EQ(cache.ResidentBytes(), wire);
  { DatasetHandle c = cache.Get("c").value(); }  // evicts b
  EXPECT_EQ(cache.Evictions(), 2u);
  EXPECT_LE(cache.ResidentBytes(), cache.BudgetBytes());
  // "a" reloads on demand — eviction degraded sharing, not correctness.
  EXPECT_TRUE(cache.Get("a").ok());
  EXPECT_EQ(cache.Misses(), 4u);
}

TEST(CacheBudgetTest, PinnedEntriesSurviveAndOverflowLoadsThrough) {
  std::size_t wire = 0;
  {
    DatasetCache probe;
    probe.Register("a", [] { return Result<TransactionDatabase>(
                                 testing::TinyQuestDb()); });
    wire = probe.Get("a").value()->resident_bytes;
  }

  DatasetCache cache(/*budget_bytes=*/wire);
  for (const char* id : {"a", "b"}) {
    cache.Register(id, [] { return Result<TransactionDatabase>(
                                testing::TinyQuestDb()); });
  }
  DatasetHandle pinned = cache.Get("a").value();  // held: in use
  Result<DatasetHandle> b = cache.Get("b");       // cannot evict a
  ASSERT_TRUE(b.ok());
  EXPECT_NE(b.value()->db, nullptr);  // served load-through, fully usable
  EXPECT_EQ(cache.Evictions(), 0u);   // the pin protected residency
  EXPECT_EQ(cache.ResidentBytes(), wire);
  EXPECT_LE(cache.ResidentBytes(), cache.BudgetBytes());

  // Once unpinned, the normal LRU rules apply again.
  pinned.reset();
  EXPECT_TRUE(cache.Get("b").ok());  // now evicts a
  EXPECT_EQ(cache.Evictions(), 1u);
}

TEST(ServeCancelTest, FaultPlanDeadlineMatrixStaysTyped) {
  // The serve chaos matrix (scripts/ci.sh): stall and drop fault plans,
  // each with and without a deadline. Every cell must resolve typed —
  // recoverable faults repair to byte-identical results, deadlines shed —
  // and the pool must be whole afterwards regardless of which way each
  // cell went.
  const TransactionDatabase db = testing::TinyQuestDb();
  AprioriConfig ref_cfg;
  ref_cfg.minsup_fraction = 0.03;
  const auto reference = testing::SerialReference(db, ref_cfg);

  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 2;
  MiningServer server(config);
  server.datasets().RegisterLoaded("tiny", TransactionDatabase(db));

  const FaultKind kinds[] = {FaultKind::kStall, FaultKind::kDrop};
  for (FaultKind kind : kinds) {
    for (bool tight_deadline : {false, true}) {
      MiningRequest request;
      request.tenant = "chaos";
      request.dataset = "tiny";
      request.algorithm = MiningAlgorithm::kCD;
      request.num_ranks = 3;
      request.config.apriori.minsup_fraction = 0.03;
      request.config.fault =
          FaultConfig::Uniform(kind, 0.3, /*seed=*/17, /*max_retries=*/8);
      if (kind == FaultKind::kStall) {
        request.config.fault.stall_ticks_ms = 20;
        request.config.fault.recv_timeout_ms = 120000;
      } else {
        // Bound the wait on an unrecoverable drop cell; its typed
        // kMiningFault is an acceptable matrix outcome, just a slow one.
        request.config.fault.recv_timeout_ms = 1000;
      }
      if (tight_deadline) request.deadline_ms = 25.0;
      ServeResponse response = server.Execute(std::move(request));
      switch (response.status) {
        case ServeStatus::kOk:
          // Recovered faults must repair to byte-identical results.
          EXPECT_EQ(testing::Flatten(response.report->frequent), reference)
              << FaultKindName(kind);
          break;
        case ServeStatus::kDeadlineExceeded:
          EXPECT_TRUE(tight_deadline) << response.error;
          break;
        case ServeStatus::kMiningFault:
          // An unrecoverable fault cell: typed, never an exception.
          EXPECT_FALSE(response.error.empty());
          break;
        default:
          ADD_FAILURE() << "untyped matrix outcome: "
                        << serve::ServeStatusName(response.status) << ": "
                        << response.error;
      }
      EXPECT_EQ(server.pool().LeasesOutstanding(), 0);
    }
  }
  ExpectBalancedStats(server.Stats());
  server.Shutdown();
  ExpectPoolWhole(server, config);
}

// The acceptance soak (ISSUE 8): a request mix where 25% carry a tight
// deadline, slow cells run under a stall fault plan, and the working set
// is twice the cache budget. Every response must be typed, every ok
// response byte-identical to its solo reference, the cache must stay
// within budget, and the pool must be whole at the end.
TEST(ServeCancelSoakTest, DeadlineMixEveryResponseTyped) {
  constexpr int kDatasets = 4;
  std::vector<TransactionDatabase> dbs;
  for (int d = 0; d < kDatasets; ++d) {
    dbs.push_back(testing::SeededQuestDb(100 + static_cast<std::uint64_t>(d)));
  }

  // Solo references per dataset (all cells mine at the same minsup).
  AprioriConfig ref_cfg;
  ref_cfg.minsup_fraction = 0.02;
  std::vector<std::map<std::vector<Item>, Count>> references;
  for (const TransactionDatabase& db : dbs) {
    references.push_back(testing::SerialReference(db, ref_cfg));
  }

  // Budget = 2 datasets' resident CSR -> working set (4 datasets) is 2x.
  std::size_t wire = 0;
  {
    DatasetCache probe;
    probe.RegisterLoaded("p", TransactionDatabase(dbs[0]));
    wire = probe.Get("p").value()->resident_bytes;
  }
  ServerConfig config;
  config.pool_ranks = 8;
  config.workers = 4;
  config.max_queue = 256;
  config.cache_budget_bytes = 2 * wire + wire / 2;
  MiningServer server(config);
  for (int d = 0; d < kDatasets; ++d) {
    server.datasets().RegisterLoaded("ds" + std::to_string(d),
                                     TransactionDatabase(dbs[d]));
  }

  const MiningAlgorithm algorithms[] = {
      MiningAlgorithm::kSerial, MiningAlgorithm::kCD, MiningAlgorithm::kIDD,
      MiningAlgorithm::kHD};
  constexpr int kClients = 4;
  constexpr int kPerClient = 12;
  std::vector<int> ok(kClients, 0), deadline(kClients, 0),
      cancelled(kClients, 0), faulted(kClients, 0), wrong(kClients, 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const int cell = c * kPerClient + i;
        const int ds = cell % kDatasets;
        MiningRequest request;
        request.tenant = "client" + std::to_string(c);
        request.dataset = "ds" + std::to_string(ds);
        request.algorithm = algorithms[cell % std::size(algorithms)];
        request.num_ranks = 2 + cell % 3;
        request.config.apriori.minsup_fraction = 0.02;
        if (cell % 4 == 0) {
          // The tight-deadline quarter: slowed by stalls and given a
          // deadline it cannot reliably make — shed in queue or killed
          // mid-run, but always typed. Forced parallel so the stall plan
          // actually applies (serial runs have no messages to stall).
          request.algorithm = MiningAlgorithm::kCD;
          request.num_ranks = 3;
          request.config.fault =
              FaultConfig::Uniform(FaultKind::kStall, 1.0,
                                   /*seed=*/static_cast<std::uint64_t>(cell));
          request.config.fault.stall_ticks_ms = 40;
          request.config.fault.recv_timeout_ms = 120000;
          request.deadline_ms = 30.0;
        }
        ServeResponse response = server.Execute(std::move(request));
        switch (response.status) {
          case ServeStatus::kOk:
            ++ok[static_cast<std::size_t>(c)];
            if (testing::Flatten(response.report->frequent) !=
                references[static_cast<std::size_t>(ds)]) {
              ++wrong[static_cast<std::size_t>(c)];
            }
            break;
          case ServeStatus::kDeadlineExceeded:
            ++deadline[static_cast<std::size_t>(c)];
            break;
          case ServeStatus::kCancelled:
            ++cancelled[static_cast<std::size_t>(c)];
            break;
          case ServeStatus::kMiningFault:
            ++faulted[static_cast<std::size_t>(c)];
            break;
          default:
            ADD_FAILURE() << "untyped response: "
                          << serve::ServeStatusName(response.status) << ": "
                          << response.error;
        }
        // Degradation is graceful: the budget holds even under load.
        EXPECT_LE(server.datasets().ResidentBytes(),
                  config.cache_budget_bytes);
      }
    });
  }
  for (std::thread& t : clients) t.join();

  int total_ok = 0, total_deadline = 0, total_other = 0, total_wrong = 0;
  for (int c = 0; c < kClients; ++c) {
    total_ok += ok[static_cast<std::size_t>(c)];
    total_deadline += deadline[static_cast<std::size_t>(c)];
    total_other += cancelled[static_cast<std::size_t>(c)] +
                   faulted[static_cast<std::size_t>(c)];
    total_wrong += wrong[static_cast<std::size_t>(c)];
  }
  constexpr int kTotal = kClients * kPerClient;
  EXPECT_EQ(total_ok + total_deadline + total_other, kTotal);
  EXPECT_EQ(total_wrong, 0);
  EXPECT_GT(total_ok, 0);        // the clean 75% overwhelmingly succeed
  EXPECT_GT(total_deadline, 0);  // the tight quarter reliably sheds some

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTotal));
  ExpectBalancedStats(stats);
  EXPECT_GT(stats.cache_evictions, 0u);  // 2x working set forced turnover
  server.Shutdown();
  ExpectPoolWhole(server, config);
  EXPECT_LE(server.datasets().ResidentBytes(), config.cache_budget_bytes);
}

}  // namespace
}  // namespace pam
