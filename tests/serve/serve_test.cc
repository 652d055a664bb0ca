// Concurrency and correctness suite for the multi-tenant MiningServer
// (ctest label `serve`; the TSan CI job runs it alongside threaded|chaos).
//
// The server's contract under test:
//   - served results are byte-identical to a solo MiningSession::Run of
//     the same request, no matter how many tenants race;
//   - admission control rejects synchronously with a typed status
//     (bounded queue, per-tenant in-flight and rank-seconds quotas,
//     unknown dataset, malformed request, shutdown);
//   - the dataset cache hands every request the same immutable database
//     — a cache hit moves zero bytes (BufferPool::CopyCount guard);
//   - every rank lease is back in the pool after Shutdown.

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <future>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pam/mp/payload.h"
#include "pam/obs/trace.h"
#include "pam/serve/server.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using serve::MiningServer;
using serve::ServeResponse;
using serve::ServeStatus;
using serve::ServerConfig;
using serve::ServerStats;

/// A latch the gated-loader tests use to hold a worker inside a dataset
/// load, making queue and quota occupancy deterministic.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;

  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return open; });
  }
};

/// Registers dataset `id` whose load blocks until `gate` opens.
void RegisterGated(MiningServer& server, const std::string& id,
                   std::shared_ptr<Gate> gate) {
  server.datasets().Register(id, [gate]() -> Result<TransactionDatabase> {
    gate->Wait();
    return testing::TinyQuestDb();
  });
}

MiningRequest Request(const std::string& tenant, const std::string& dataset,
                      MiningAlgorithm algorithm, int ranks,
                      double minsup = 0.02) {
  MiningRequest request;
  request.tenant = tenant;
  request.dataset = dataset;
  request.algorithm = algorithm;
  request.num_ranks = ranks;
  request.config.apriori.minsup_fraction = minsup;
  return request;
}

/// Spin-waits until `predicate` holds (the suite's only time dependence;
/// bounded by the gtest per-test timeout).
template <typename Predicate>
void AwaitTrue(Predicate predicate) {
  while (!predicate()) std::this_thread::yield();
}

TEST(ServeTest, ConcurrentMixedAlgorithmsMatchSolo) {
  const TransactionDatabase db = testing::SmallQuestDb();

  const struct {
    MiningAlgorithm algorithm;
    int ranks;
  } mix[] = {
      {MiningAlgorithm::kSerial, 1}, {MiningAlgorithm::kCD, 4},
      {MiningAlgorithm::kDD, 3},     {MiningAlgorithm::kIDD, 4},
      {MiningAlgorithm::kHD, 4},     {MiningAlgorithm::kHPA, 3},
  };

  // Solo references, mined outside the server.
  std::map<int, std::map<std::vector<Item>, Count>> references;
  for (std::size_t i = 0; i < std::size(mix); ++i) {
    MiningSession solo;
    references[static_cast<int>(i)] = testing::Flatten(
        solo.Run(Request("solo", "quest", mix[i].algorithm, mix[i].ranks), db)
            .frequent);
  }

  ServerConfig config;
  config.pool_ranks = 8;
  config.workers = 4;
  MiningServer server(config);
  server.datasets().RegisterLoaded("quest", TransactionDatabase(db));

  // One client thread per mix cell, each submitting its cell three times
  // under a distinct tenant; every response must equal the solo run.
  constexpr int kRepeats = 3;
  std::vector<std::future<ServeResponse>> futures(std::size(mix) * kRepeats);
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < std::size(mix); ++i) {
    clients.emplace_back([&, i] {
      for (int r = 0; r < kRepeats; ++r) {
        futures[i * kRepeats + static_cast<std::size_t>(r)] = server.Submit(
            Request("tenant" + std::to_string(i), "quest", mix[i].algorithm,
                    mix[i].ranks));
      }
    });
  }
  for (std::thread& t : clients) t.join();

  for (std::size_t i = 0; i < std::size(mix); ++i) {
    for (int r = 0; r < kRepeats; ++r) {
      ServeResponse response =
          futures[i * kRepeats + static_cast<std::size_t>(r)].get();
      ASSERT_EQ(response.status, ServeStatus::kOk) << response.error;
      EXPECT_EQ(testing::Flatten(response.report->frequent),
                references[static_cast<int>(i)])
          << MiningAlgorithmName(mix[i].algorithm) << " repeat " << r;
    }
  }

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.admitted, std::size(mix) * kRepeats);
  EXPECT_EQ(stats.completed, std::size(mix) * kRepeats);
  EXPECT_EQ(stats.TotalRejected(), 0u);

  server.Shutdown();
  EXPECT_EQ(server.pool().Available(), config.pool_ranks);
  EXPECT_EQ(server.pool().LeasesOutstanding(), 0);
}

TEST(ServeTest, RuleGenerationMatchesSolo) {
  const TransactionDatabase db = testing::SmallQuestDb();
  MiningRequest request = Request("acme", "quest", MiningAlgorithm::kCD, 4);
  request.generate_rules = true;
  request.min_confidence = 0.6;

  MiningSession solo;
  const MiningReport reference = solo.Run(request, db);

  MiningServer server(ServerConfig{});
  server.datasets().RegisterLoaded("quest", TransactionDatabase(db));
  ServeResponse response = server.Execute(request);
  ASSERT_TRUE(response.ok()) << response.error;
  EXPECT_EQ(testing::Flatten(response.report->frequent),
            testing::Flatten(reference.frequent));
  ASSERT_EQ(response.report->rules.size(), reference.rules.size());
  for (std::size_t i = 0; i < reference.rules.size(); ++i) {
    EXPECT_EQ(response.report->rules[i].antecedent,
              reference.rules[i].antecedent);
    EXPECT_EQ(response.report->rules[i].consequent,
              reference.rules[i].consequent);
  }
}

TEST(ServeTest, QueueFullRejectsTyped) {
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 1;
  config.max_queue = 1;
  MiningServer server(config);
  auto gate = std::make_shared<Gate>();
  RegisterGated(server, "gated", gate);

  // First request: the lone worker dequeues it and parks inside the gated
  // loader. Wait for the dequeue so queue occupancy is deterministic.
  auto first = server.Submit(
      Request("acme", "gated", MiningAlgorithm::kSerial, 1, 0.03));
  AwaitTrue([&] { return server.Stats().queue_depth == 0; });

  // Second fills the 1-deep queue; third must be rejected synchronously.
  auto second = server.Submit(
      Request("acme", "gated", MiningAlgorithm::kSerial, 1, 0.03));
  auto third = server.Submit(
      Request("acme", "gated", MiningAlgorithm::kSerial, 1, 0.03));
  ServeResponse rejected = third.get();  // already resolved
  EXPECT_EQ(rejected.status, ServeStatus::kQueueFull);
  EXPECT_TRUE(rejected.rejected());
  EXPECT_FALSE(rejected.error.empty());

  gate->Open();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(second.get().ok());
  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.rejected_queue_full, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST(ServeTest, TenantInFlightQuotaEnforced) {
  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 2;
  config.tenant_quotas["capped"] = {/*max_in_flight=*/1,
                                    /*rank_seconds=*/0.0};
  MiningServer server(config);
  auto gate = std::make_shared<Gate>();
  RegisterGated(server, "gated", gate);

  auto first = server.Submit(
      Request("capped", "gated", MiningAlgorithm::kSerial, 1, 0.03));
  // In-flight is counted from admission, so the second submit of the
  // capped tenant is rejected while the first is still loading...
  ServeResponse rejected =
      server
          .Submit(Request("capped", "gated", MiningAlgorithm::kSerial, 1,
                          0.03))
          .get();
  EXPECT_EQ(rejected.status, ServeStatus::kTenantInFlightExceeded);
  // ...but an uncapped tenant is admitted fine.
  auto other = server.Submit(
      Request("other", "gated", MiningAlgorithm::kSerial, 1, 0.03));

  gate->Open();
  EXPECT_TRUE(first.get().ok());
  EXPECT_TRUE(other.get().ok());

  // With the first request finished, the tenant is under quota again.
  EXPECT_TRUE(server
                  .Execute(Request("capped", "gated",
                                   MiningAlgorithm::kSerial, 1, 0.03))
                  .ok());
  EXPECT_EQ(server.Stats().rejected_tenant_in_flight, 1u);
  EXPECT_EQ(server.UsageFor("capped").in_flight, 0);
}

TEST(ServeTest, TenantBudgetQuotaEnforced) {
  ServerConfig config;
  config.pool_ranks = 4;
  // A budget so small the first completed request exhausts it.
  config.tenant_quotas["metered"] = {/*max_in_flight=*/0,
                                     /*rank_seconds=*/1e-9};
  MiningServer server(config);
  server.datasets().RegisterLoaded("quest", testing::SmallQuestDb());

  ServeResponse first =
      server.Execute(Request("metered", "quest", MiningAlgorithm::kCD, 4));
  ASSERT_TRUE(first.ok()) << first.error;
  EXPECT_GT(server.UsageFor("metered").rank_seconds, 0.0);

  ServeResponse second =
      server.Execute(Request("metered", "quest", MiningAlgorithm::kCD, 4));
  EXPECT_EQ(second.status, ServeStatus::kTenantBudgetExhausted);
  EXPECT_EQ(server.Stats().rejected_tenant_budget, 1u);

  // The budget meters the tenant, not the server.
  EXPECT_TRUE(
      server.Execute(Request("other", "quest", MiningAlgorithm::kCD, 4))
          .ok());
}

TEST(ServeTest, DatasetCacheServesOneSharedCopy) {
  MiningServer server(ServerConfig{});
  TransactionDatabase registered = testing::SmallQuestDb();
  const Item* registered_items = registered.items().data();
  server.datasets().RegisterLoaded("quest", std::move(registered));

  // First request pays the one-time load, which copies nothing: the cached
  // CSR is the registered database itself...
  ServeResponse first =
      server.Execute(Request("a", "quest", MiningAlgorithm::kSerial, 1));
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_NE(first.dataset, nullptr);
  EXPECT_EQ(first.dataset->db->items().data(), registered_items);
  const std::uint64_t copies_after_load = BufferPool::CopyCount();

  // ...and every later request over the dataset moves zero bytes: same
  // handle, no new Payload::Copy.
  ServeResponse second =
      server.Execute(Request("b", "quest", MiningAlgorithm::kSerial, 1));
  ASSERT_TRUE(second.ok()) << second.error;
  EXPECT_EQ(BufferPool::CopyCount(), copies_after_load);
  EXPECT_EQ(first.dataset, second.dataset);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(server.datasets().ResidentBytes(), first.dataset->resident_bytes);
}

TEST(ServeTest, RejectsUnknownDatasetAndMalformedRequests) {
  ServerConfig config;
  config.pool_ranks = 4;
  MiningServer server(config);
  server.datasets().RegisterLoaded("quest", testing::SmallQuestDb());

  ServeResponse unknown =
      server.Execute(Request("a", "nope", MiningAlgorithm::kSerial, 1));
  EXPECT_EQ(unknown.status, ServeStatus::kUnknownDataset);

  ServeResponse no_dataset =
      server.Execute(Request("a", "", MiningAlgorithm::kSerial, 1));
  EXPECT_EQ(no_dataset.status, ServeStatus::kInvalidRequest);

  // More ranks than the pool can ever grant: rejected up front instead of
  // blocking a worker forever.
  ServeResponse too_wide =
      server.Execute(Request("a", "quest", MiningAlgorithm::kCD,
                             config.pool_ranks + 1));
  EXPECT_EQ(too_wide.status, ServeStatus::kInvalidRequest);

  // A serial request's num_ranks is ignored (effective width 1), matching
  // MiningSession semantics.
  MiningRequest serial_wide =
      Request("a", "quest", MiningAlgorithm::kSerial, 1);
  serial_wide.num_ranks = 99;
  EXPECT_TRUE(server.Execute(serial_wide).ok());

  // The other numbers a client sends are bounded before they size a thread
  // team or reach a double-to-integer conversion: threads per rank within
  // [1, pool_ranks], a finite deadline a clock can hold, and (with no
  // explicit count) a support fraction in [0, 1].
  const auto rejects = [&](const std::string& label,
                           const std::function<void(MiningRequest&)>& edit) {
    MiningRequest request = Request("a", "quest", MiningAlgorithm::kCD, 2);
    edit(request);
    EXPECT_EQ(server.Execute(std::move(request)).status,
              ServeStatus::kInvalidRequest)
        << label;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  rejects("threads=pool+1", [&](MiningRequest& r) {
    r.config.apriori.threads_per_rank = config.pool_ranks + 1;
  });
  rejects("threads=0",
          [](MiningRequest& r) { r.config.apriori.threads_per_rank = 0; });
  rejects("deadline=inf", [&](MiningRequest& r) { r.deadline_ms = inf; });
  rejects("deadline=-inf", [&](MiningRequest& r) { r.deadline_ms = -inf; });
  rejects("deadline=nan", [&](MiningRequest& r) { r.deadline_ms = nan; });
  rejects("deadline=1e300", [](MiningRequest& r) { r.deadline_ms = 1e300; });
  rejects("minsup=nan", [&](MiningRequest& r) {
    r.config.apriori.minsup_fraction = nan;
  });
  rejects("minsup=-0.5", [](MiningRequest& r) {
    r.config.apriori.minsup_fraction = -0.5;
  });
  rejects("minsup=1.5", [](MiningRequest& r) {
    r.config.apriori.minsup_fraction = 1.5;
  });
  // An explicit count makes the fraction unused, so it is not checked.
  MiningRequest by_count = Request("a", "quest", MiningAlgorithm::kCD, 2);
  by_count.config.apriori.minsup_count = 12;
  by_count.config.apriori.minsup_fraction = nan;
  by_count.config.apriori.threads_per_rank = config.pool_ranks;
  EXPECT_TRUE(server.Execute(std::move(by_count)).ok());

  EXPECT_EQ(server.Stats().rejected_invalid, 11u);
  EXPECT_EQ(server.Stats().rejected_unknown_dataset, 1u);
}

TEST(ServeTest, ShutdownRejectsNewAndDrainsAdmitted) {
  ServerConfig config;
  config.workers = 2;
  MiningServer server(config);
  server.datasets().RegisterLoaded("quest", testing::SmallQuestDb());

  // A burst of admitted work, then an immediate shutdown: every admitted
  // future must still resolve ok (drain-first), and submits after the
  // shutdown are rejected with the typed status.
  std::vector<std::future<ServeResponse>> admitted;
  for (int i = 0; i < 6; ++i) {
    admitted.push_back(
        server.Submit(Request("a", "quest", MiningAlgorithm::kDD, 2)));
  }
  server.Shutdown();
  for (auto& f : admitted) {
    ServeResponse response = f.get();
    EXPECT_TRUE(response.ok()) << response.error;
  }
  ServeResponse late =
      server.Execute(Request("a", "quest", MiningAlgorithm::kSerial, 1));
  EXPECT_EQ(late.status, ServeStatus::kShuttingDown);
  EXPECT_EQ(server.pool().Available(), config.pool_ranks);
  EXPECT_EQ(server.pool().LeasesOutstanding(), 0);
  EXPECT_TRUE(server.pool().closed());
}

TEST(ServeTest, EmitsOneServeSpanPerExecutedRequest) {
  obs::TimelineSink sink;  // must outlive the server
  ServerConfig config;
  MiningServer server(config);
  server.AddTraceSink(&sink);
  server.datasets().RegisterLoaded("quest", testing::SmallQuestDb());

  EXPECT_TRUE(
      server.Execute(Request("a", "quest", MiningAlgorithm::kCD, 2)).ok());
  EXPECT_TRUE(
      server.Execute(Request("a", "quest", MiningAlgorithm::kSerial, 1))
          .ok());
  // Rejections never execute, so they must not produce a span.
  EXPECT_EQ(
      server.Execute(Request("a", "nope", MiningAlgorithm::kSerial, 1))
          .status,
      ServeStatus::kUnknownDataset);
  server.Shutdown();

  obs::Timeline timeline = sink.Take();
  ASSERT_EQ(timeline.size(), 2u);
  std::vector<std::int64_t> sequences;
  for (const obs::SpanRecord& span : timeline.spans) {
    EXPECT_EQ(span.kind, obs::SpanKind::kServeRequest);
    EXPECT_GT(span.dur_us, 0.0);
    sequences.push_back(span.index);
  }
  // Span index is the admission sequence number.
  std::sort(sequences.begin(), sequences.end());
  EXPECT_EQ(sequences, (std::vector<std::int64_t>{0, 1}));
}

TEST(ServeTest, ResultCacheHitEmitsOneInstantInsideItsRequestSpan) {
  obs::TimelineSink sink;  // must outlive the server
  ServerConfig config;
  config.result_cache = true;
  MiningServer server(config);
  server.AddTraceSink(&sink);
  server.datasets().RegisterLoaded("quest", testing::SmallQuestDb());

  const MiningRequest request = Request("a", "quest", MiningAlgorithm::kCD, 2);
  const ServeResponse mined = server.Execute(request);
  const ServeResponse hit = server.Execute(request);
  ASSERT_TRUE(mined.ok());
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(mined.from_result_cache);
  EXPECT_TRUE(hit.from_result_cache);
  server.Shutdown();

  const obs::Timeline timeline = sink.Take();
  std::vector<obs::SpanRecord> requests;
  std::vector<obs::SpanRecord> hits;
  for (const obs::SpanRecord& span : timeline.spans) {
    if (span.kind == obs::SpanKind::kServeRequest) requests.push_back(span);
    if (span.kind == obs::SpanKind::kResultCacheHit) hits.push_back(span);
  }
  ASSERT_EQ(requests.size(), 2u);
  ASSERT_EQ(hits.size(), 1u);
  const obs::SpanRecord& instant = hits[0];
  EXPECT_TRUE(instant.instant);
  ASSERT_NE(instant.detail, nullptr);
  EXPECT_STREQ(instant.detail, "hit");
  // The hit is the second admitted request (sequence 1): the instant sits
  // on that request's worker track, inside its serve_request span.
  const auto second =
      std::find_if(requests.begin(), requests.end(),
                   [](const obs::SpanRecord& span) { return span.index == 1; });
  ASSERT_NE(second, requests.end());
  EXPECT_EQ(instant.rank, second->rank);
  EXPECT_GE(instant.ts_us, second->ts_us);
  EXPECT_LE(instant.ts_us, second->ts_us + second->dur_us);
}

}  // namespace
}  // namespace pam
