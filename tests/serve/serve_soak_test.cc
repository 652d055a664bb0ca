// Soak / chaos test for the MiningServer: a long-running server under a
// live multi-tenant mix that includes fault-injected requests — some with
// a recoverable transport fault schedule, some deliberately unrecoverable.
//
// The server must survive the whole mix: every ok response byte-identical
// to its solo reference, every unrecoverable run terminated with a typed
// kMiningFault response (never a crash, never silently wrong counts), and
// at shutdown every rank lease back in the pool with the admission
// counters balancing exactly.

#include <cstdint>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pam/mp/fault.h"
#include "pam/serve/server.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using serve::MiningServer;
using serve::ServeResponse;
using serve::ServeStatus;
using serve::ServerConfig;
using serve::ServerStats;

/// One cell of a tenant's request loop.
struct SoakCell {
  const char* dataset;
  MiningAlgorithm algorithm;
  int ranks;
  double minsup;
  enum class Faults { kNone, kRecoverable, kUnrecoverable } faults;
};

MiningRequest SoakRequest(const std::string& tenant, const SoakCell& cell,
                          std::uint64_t fault_seed) {
  MiningRequest request;
  request.tenant = tenant;
  request.dataset = cell.dataset;
  request.algorithm = cell.algorithm;
  request.num_ranks = cell.ranks;
  request.config.apriori.minsup_fraction = cell.minsup;
  switch (cell.faults) {
    case SoakCell::Faults::kNone:
      break;
    case SoakCell::Faults::kRecoverable:
      // Modest mixed storm with a retransmit budget: the communicator
      // repairs everything and the result must stay exact.
      request.config.fault =
          FaultConfig::Mixed(0.02, fault_seed, /*max_retries=*/8);
      request.config.fault.recv_timeout_ms = 10000;
      break;
    case SoakCell::Faults::kUnrecoverable:
      // Heavy drops with no retransmit budget and a short receive
      // deadline: the run must die with CommError(kTimeout), which the
      // server converts to a typed kMiningFault response.
      request.config.fault = FaultConfig::Uniform(
          FaultKind::kDrop, 0.4, fault_seed, /*max_retries=*/0);
      request.config.fault.recv_timeout_ms = 300;
      break;
  }
  return request;
}

TEST(ServeSoakTest, SurvivesMultiTenantFaultMix) {
  const TransactionDatabase small = testing::SmallQuestDb();
  const TransactionDatabase tiny = testing::TinyQuestDb();

  // The per-tenant request loop: clean cells on the small dataset,
  // fault-injected cells on the tiny one (each chaos cell pays the
  // fault-injection overhead on every message, so it gets the cheaper
  // workload — same sizing logic as the chaos matrix).
  const SoakCell cells[] = {
      {"small", MiningAlgorithm::kSerial, 1, 0.02,
       SoakCell::Faults::kNone},
      {"small", MiningAlgorithm::kCD, 4, 0.02, SoakCell::Faults::kNone},
      {"tiny", MiningAlgorithm::kCD, 3, 0.03,
       SoakCell::Faults::kRecoverable},
      {"small", MiningAlgorithm::kHD, 4, 0.025, SoakCell::Faults::kNone},
      {"tiny", MiningAlgorithm::kDD, 3, 0.03,
       SoakCell::Faults::kRecoverable},
      {"tiny", MiningAlgorithm::kCD, 2, 0.03,
       SoakCell::Faults::kUnrecoverable},
      {"small", MiningAlgorithm::kIDD, 3, 0.02, SoakCell::Faults::kNone},
      {"tiny", MiningAlgorithm::kHPA, 2, 0.03,
       SoakCell::Faults::kRecoverable},
  };

  // Solo references per cell (fault-free equivalents: any cell that
  // completes — recoverable, or an unrecoverable one whose schedule got
  // lucky — must produce exactly the clean result).
  std::map<const SoakCell*, std::map<std::vector<Item>, Count>> references;
  for (const SoakCell& cell : cells) {
    MiningRequest clean = SoakRequest("ref", cell, /*fault_seed=*/0);
    clean.config.fault = FaultConfig();
    MiningSession solo;
    references[&cell] = testing::Flatten(
        solo.Run(clean, std::string(cell.dataset) == "small" ? small : tiny)
            .frequent);
  }

  ServerConfig config;
  config.pool_ranks = 8;
  config.workers = 4;
  config.max_queue = 256;
  MiningServer server(config);
  server.datasets().RegisterLoaded("small", TransactionDatabase(small));
  server.datasets().RegisterLoaded("tiny", TransactionDatabase(tiny));

  constexpr int kTenants = 4;
  constexpr int kRequestsPerTenant = 16;
  std::vector<int> ok_count(kTenants, 0);
  std::vector<int> fault_count(kTenants, 0);
  std::vector<int> wrong_count(kTenants, 0);
  std::vector<std::thread> tenants;
  for (int t = 0; t < kTenants; ++t) {
    tenants.emplace_back([&, t] {
      const std::string tenant = "tenant" + std::to_string(t);
      for (int i = 0; i < kRequestsPerTenant; ++i) {
        // Stagger tenants through the cell table; vary the fault seed so
        // the soak covers different schedules, deterministically.
        const SoakCell& cell =
            cells[static_cast<std::size_t>(t + i) % std::size(cells)];
        const std::uint64_t fault_seed =
            static_cast<std::uint64_t>(1000 + t * 100 + i);
        ServeResponse response =
            server.Execute(SoakRequest(tenant, cell, fault_seed));
        if (response.ok()) {
          ++ok_count[static_cast<std::size_t>(t)];
          if (testing::Flatten(response.report->frequent) !=
              references.at(&cell)) {
            ++wrong_count[static_cast<std::size_t>(t)];
          }
        } else if (response.status == ServeStatus::kMiningFault) {
          ++fault_count[static_cast<std::size_t>(t)];
          EXPECT_FALSE(response.error.empty());
        } else {
          ADD_FAILURE() << "unexpected status "
                        << serve::ServeStatusName(response.status) << ": "
                        << response.error;
        }
      }
    });
  }
  for (std::thread& t : tenants) t.join();

  int total_ok = 0, total_faults = 0, total_wrong = 0;
  for (int t = 0; t < kTenants; ++t) {
    total_ok += ok_count[static_cast<std::size_t>(t)];
    total_faults += fault_count[static_cast<std::size_t>(t)];
    total_wrong += wrong_count[static_cast<std::size_t>(t)];
  }
  constexpr int kTotal = kTenants * kRequestsPerTenant;
  // Every ok response was exact; every request resolved ok or typed-fault.
  EXPECT_EQ(total_wrong, 0);
  EXPECT_EQ(total_ok + total_faults, kTotal);
  // The mix guarantees unrecoverable cells ran, and that they are the
  // minority: the server spent the soak mostly serving, not failing.
  EXPECT_GT(total_faults, 0);
  EXPECT_GT(total_ok, total_faults);

  const ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.admitted, static_cast<std::uint64_t>(kTotal));
  EXPECT_EQ(stats.completed, static_cast<std::uint64_t>(total_ok));
  EXPECT_EQ(stats.mining_faults, static_cast<std::uint64_t>(total_faults));
  EXPECT_EQ(stats.TotalRejected(), 0u);
  EXPECT_GT(stats.rank_seconds_charged, 0.0);

  // No leaked rank leases: the pool is whole again after the storm.
  server.Shutdown();
  EXPECT_EQ(server.pool().Available(), config.pool_ranks);
  EXPECT_EQ(server.pool().LeasesOutstanding(), 0);
  EXPECT_EQ(server.Stats().queue_depth, 0u);
}

}  // namespace
}  // namespace pam
