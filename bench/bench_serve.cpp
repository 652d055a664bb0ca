// Serving benchmark for the pam_serve mining server, in the style of the
// Shardmap tpcb_run driver: a multi-tenant request-mix generator drives
// the in-process daemon closed-loop, and the harness reports throughput
// and p50/p95/p99 request latency per client-concurrency level, plus an
// open-loop overload burst that exercises the admission-control and
// tenant-quota rejection paths. Writes BENCH_serve.json (the serving perf
// trajectory; committed at the repo root like BENCH_comm.json).
//
// Every mix cell is also verified against a solo MiningSession run of the
// same request — the server must add scheduling, never arithmetic — and
// the harness exits non-zero on any mismatch.
//
// The net_hit section drives the same server over loopback TCP instead:
// MiningServer + NetServer + NetClient, one fresh mine of a Quest T15.I6
// draw with rules, then 200 result-cache hits of it, timed send to
// decoded response the way a remote client sees them.
//
//   bench_serve [--smoke]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <future>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "pam/mp/fault.h"
#include "pam/serve/net_server.h"
#include "pam/serve/protocol.h"
#include "pam/serve/server.h"

namespace {

using pam::MiningAlgorithm;
using pam::MiningRequest;
using pam::serve::MiningServer;
using pam::serve::ServeResponse;
using pam::serve::ServerConfig;
using pam::serve::ServerStats;

/// One cell of the request mix: which tenant asks for what.
struct MixCell {
  const char* tenant;
  const char* dataset;
  MiningAlgorithm algorithm;
  int ranks;
  double minsup_fraction;
  bool rules;
  int threads;
};

/// The steady-state mix: four tenants with distinct algorithm diets over
/// two shared datasets, so the cache serves cross-tenant hits and the
/// rank pool sees wide (HD/HPA) and narrow (serial) requests interleaved.
const MixCell kMix[] = {
    {"alpha", "retail", MiningAlgorithm::kSerial, 1, 0.02, false, 1},
    {"alpha", "retail", MiningAlgorithm::kCD, 4, 0.02, false, 1},
    {"beta", "retail", MiningAlgorithm::kDD, 4, 0.025, false, 1},
    {"beta", "web", MiningAlgorithm::kDDComm, 2, 0.03, false, 1},
    {"gamma", "web", MiningAlgorithm::kIDD, 4, 0.03, false, 1},
    {"gamma", "retail", MiningAlgorithm::kHD, 4, 0.025, false, 1},
    {"delta", "web", MiningAlgorithm::kHPA, 3, 0.03, false, 2},
    {"delta", "retail", MiningAlgorithm::kSerial, 1, 0.02, true, 1},
};

MiningRequest RequestOf(const MixCell& cell) {
  MiningRequest request;
  request.tenant = cell.tenant;
  request.dataset = cell.dataset;
  request.algorithm = cell.algorithm;
  request.num_ranks = cell.ranks;
  request.config.apriori.minsup_fraction = cell.minsup_fraction;
  request.config.apriori.threads_per_rank = cell.threads;
  request.generate_rules = cell.rules;
  return request;
}

struct SectionResult {
  int clients = 0;
  std::size_t requests = 0;
  double wall_seconds = 0.0;
  double throughput_rps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

double PercentileMs(std::vector<double>& sorted_seconds, double q) {
  if (sorted_seconds.empty()) return 0.0;
  const std::size_t n = sorted_seconds.size();
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(n));
  if (idx >= n) idx = n - 1;
  return sorted_seconds[idx] * 1e3;
}

/// Every frequent itemset and its count: what a served result must share
/// with the solo run of its request.
using Flat = std::map<std::vector<pam::Item>, pam::Count>;

Flat FlattenItemsets(const pam::FrequentItemsets& frequent) {
  Flat flat;
  for (const auto& level : frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      pam::ItemSpan span = level.Get(i);
      flat[std::vector<pam::Item>(span.begin(), span.end())] = level.count(i);
    }
  }
  return flat;
}

bool SameRules(const std::vector<pam::Rule>& a,
               const std::vector<pam::Rule>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].antecedent != b[i].antecedent ||
        a[i].consequent != b[i].consequent ||
        a[i].joint_count != b[i].joint_count) {
      return false;
    }
  }
  return true;
}

struct NetHitResult {
  std::size_t transactions = 0;
  std::size_t itemsets = 0;
  std::size_t rules = 0;
  std::size_t frame_bytes = 0;
  std::size_t hits = 0;
  double mine_ms = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  bool ok = false;
};

/// The result-cache hit as a remote client sees it: one fresh mine of the
/// request over loopback TCP, then `hits` repeats answered from the cache,
/// each timed from send to decoded response. Every response is held to a
/// solo run of the same request.
NetHitResult RunNetHit(bool smoke) {
  NetHitResult result;
  pam::QuestConfig data =
      pam::QuestT15I6(pam::bench::ScaledN(smoke ? 2000 : 20000), 1997);
  data.num_patterns = 400;
  const pam::TransactionDatabase db = pam::GenerateQuest(data);
  result.transactions = db.size();
  MiningRequest request;
  request.tenant = "bench";
  request.dataset = "t15i6";
  request.algorithm = MiningAlgorithm::kCD;
  request.num_ranks = 2;
  request.config.apriori.minsup_fraction = 0.005;
  request.generate_rules = true;
  request.min_confidence = 0.5;
  pam::MiningSession solo;
  const pam::MiningReport reference = solo.Run(request, db);
  const Flat reference_flat = FlattenItemsets(reference.frequent);
  result.itemsets = reference_flat.size();
  result.rules = reference.rules.size();

  ServerConfig config;
  config.pool_ranks = 4;
  config.workers = 2;
  config.result_cache = true;
  config.result_cache_budget_bytes = 4 << 20;
  MiningServer server(config);
  server.datasets().RegisterLoaded("t15i6", pam::TransactionDatabase(db));
  pam::serve::NetServer net(&server, pam::serve::NetServerConfig{});
  pam::serve::NetClient client;
  if (!net.Start().ok() || !client.Connect("127.0.0.1", net.port()).ok()) {
    std::printf("UNEXPECTED: net_hit could not start the loopback server\n");
    return result;
  }
  const std::size_t hits = 200;
  std::vector<double> hit_seconds;
  bool ok = true;
  for (std::size_t i = 0; i <= hits && ok; ++i) {
    const auto start = std::chrono::steady_clock::now();
    pam::Result<pam::serve::NetClient::ServerFrame> frame =
        client.SendMine(i + 1, request).ok()
            ? client.Recv()
            : pam::Result<pam::serve::NetClient::ServerFrame>(
                  pam::Status::Error("send failed"));
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    ok = frame.ok() &&
         frame.value().type == pam::serve::FrameType::kResponse &&
         frame.value().response.status == pam::serve::ServeStatus::kOk &&
         frame.value().response.from_result_cache == (i > 0);
    if (!ok) break;
    const pam::serve::ResponseFrame& response = frame.value().response;
    if (i == 0) {
      result.mine_ms = seconds * 1e3;
      result.frame_bytes = pam::serve::EncodeResponse(response).size();
      ok = FlattenItemsets(response.frequent) == reference_flat &&
           SameRules(response.rules, reference.rules);
    } else {
      hit_seconds.push_back(seconds);
      // Spot-check the hits' payloads; the first and last in full.
      if (i == 1 || i == hits) {
        ok = FlattenItemsets(response.frequent) == reference_flat &&
             SameRules(response.rules, reference.rules);
      } else {
        ok = response.rules.size() == reference.rules.size();
      }
    }
  }
  client.Close();
  net.Stop();
  server.Shutdown();
  std::sort(hit_seconds.begin(), hit_seconds.end());
  result.hits = hit_seconds.size();
  result.p50_ms = PercentileMs(hit_seconds, 0.50);
  result.p99_ms = PercentileMs(hit_seconds, 0.99);
  result.ok = ok && result.hits == hits;
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  pam::bench::Banner(
      "bench_serve: multi-tenant mining-as-a-service driver",
      "north-star serving workload (ROADMAP item 1); tpcb_run-style "
      "request mix");

  // Two shared datasets, generated once and registered with the server's
  // cache (the cache pays one decode + one payload materialization per
  // dataset; every request after that is a refcount bump).
  pam::QuestConfig retail_cfg =
      pam::bench::PaperWorkload(pam::bench::ScaledN(smoke ? 600 : 2000));
  retail_cfg.num_items = 200;
  pam::QuestConfig web_cfg;
  web_cfg.num_transactions = pam::bench::ScaledN(smoke ? 400 : 1200);
  web_cfg.num_items = 120;
  web_cfg.avg_transaction_len = 9;
  web_cfg.avg_pattern_len = 4;
  web_cfg.num_patterns = 60;
  web_cfg.seed = 4242;
  const pam::TransactionDatabase retail = pam::GenerateQuest(retail_cfg);
  const pam::TransactionDatabase web = pam::GenerateQuest(web_cfg);
  std::printf("datasets: retail %zu tx, web %zu tx\n", retail.size(),
              web.size());

  // Solo references for every mix cell, mined outside the server.
  std::map<const MixCell*, Flat> references;
  for (const MixCell& cell : kMix) {
    const pam::TransactionDatabase& db =
        std::string(cell.dataset) == "retail" ? retail : web;
    pam::MiningSession solo;
    references[&cell] =
        FlattenItemsets(solo.Run(RequestOf(cell), db).frequent);
  }

  ServerConfig config;
  config.pool_ranks = 8;
  config.workers = 4;
  config.max_queue = 256;

  const std::vector<int> client_counts =
      smoke ? std::vector<int>{2} : std::vector<int>{1, 4, 8};
  const int iters_per_client = smoke ? 8 : 24;

  std::vector<SectionResult> sections;
  bool mismatch = false;

  for (const int clients : client_counts) {
    MiningServer server(config);
    server.datasets().RegisterLoaded("retail",
                                     pam::TransactionDatabase(retail));
    server.datasets().RegisterLoaded("web", pam::TransactionDatabase(web));

    std::vector<std::vector<double>> latencies(
        static_cast<std::size_t>(clients));
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
        for (int i = 0; i < iters_per_client; ++i) {
          const MixCell& cell =
              kMix[(static_cast<std::size_t>(c) + // stagger clients
                    static_cast<std::size_t>(i)) % kMixSize];
          const auto start = std::chrono::steady_clock::now();
          ServeResponse response = server.Execute(RequestOf(cell));
          const auto end = std::chrono::steady_clock::now();
          latencies[static_cast<std::size_t>(c)].push_back(
              std::chrono::duration<double>(end - start).count());
          if (!response.ok()) {
            std::printf("UNEXPECTED non-ok response: %s (%s)\n",
                        pam::serve::ServeStatusName(response.status),
                        response.error.c_str());
            mismatch = true;
          } else {
            // Exactness: the served result must equal the solo run.
            if (FlattenItemsets(response.report->frequent) !=
                references[&cell]) {
              std::printf("MISMATCH: %s/%s served result != solo run\n",
                          cell.tenant,
                          pam::MiningAlgorithmName(cell.algorithm).c_str());
              mismatch = true;
            }
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    const ServerStats stats = server.Stats();
    server.Shutdown();

    std::vector<double> all;
    for (const auto& per_client : latencies) {
      all.insert(all.end(), per_client.begin(), per_client.end());
    }
    std::sort(all.begin(), all.end());

    SectionResult section;
    section.clients = clients;
    section.requests = all.size();
    section.wall_seconds = wall;
    section.throughput_rps =
        wall > 0.0 ? static_cast<double>(all.size()) / wall : 0.0;
    section.p50_ms = PercentileMs(all, 0.50);
    section.p95_ms = PercentileMs(all, 0.95);
    section.p99_ms = PercentileMs(all, 0.99);
    section.max_ms = all.empty() ? 0.0 : all.back() * 1e3;
    section.cache_hits = stats.cache_hits;
    section.cache_misses = stats.cache_misses;
    sections.push_back(section);

    std::printf(
        "clients=%d  %zu req in %.2fs  %.1f req/s  p50 %.1fms  p95 %.1fms "
        " p99 %.1fms  max %.1fms  cache %llu/%llu hits\n",
        clients, section.requests, wall, section.throughput_rps,
        section.p50_ms, section.p95_ms, section.p99_ms, section.max_ms,
        static_cast<unsigned long long>(section.cache_hits),
        static_cast<unsigned long long>(section.cache_hits +
                                        section.cache_misses));
  }

  // Overload burst: a deliberately tiny server hammered open-loop, so the
  // bounded queue and the per-tenant in-flight quota must both reject.
  ServerConfig tiny;
  tiny.pool_ranks = 4;
  tiny.workers = 2;
  tiny.max_queue = 4;
  tiny.tenant_quotas["alpha"] = {/*max_in_flight=*/2, /*rank_seconds=*/0.0};
  MiningServer overload(tiny);
  overload.datasets().RegisterLoaded("web", pam::TransactionDatabase(web));
  std::vector<std::future<ServeResponse>> burst;
  const int burst_size = smoke ? 24 : 64;
  for (int i = 0; i < burst_size; ++i) {
    MiningRequest request;
    request.tenant = i % 2 == 0 ? "alpha" : "beta";
    request.dataset = "web";
    request.algorithm = MiningAlgorithm::kCD;
    request.num_ranks = 2;
    request.config.apriori.minsup_fraction = 0.03;
    burst.push_back(overload.Submit(std::move(request)));
  }
  std::size_t burst_ok = 0;
  for (auto& f : burst) {
    if (f.get().ok()) ++burst_ok;
  }
  const ServerStats burst_stats = overload.Stats();
  overload.Shutdown();
  std::printf(
      "overload burst: %d submitted, %zu ok, %llu queue_full, %llu "
      "quota rejections (typed, synchronous)\n",
      burst_size, burst_ok,
      static_cast<unsigned long long>(burst_stats.rejected_queue_full),
      static_cast<unsigned long long>(
          burst_stats.rejected_tenant_in_flight));
  if (burst_stats.submitted !=
      burst_stats.admitted + burst_stats.TotalRejected()) {
    std::printf("MISMATCH: admission accounting does not balance\n");
    mismatch = true;
  }

  // Deadline mix (DESIGN.md §13): a fraction of the load carries a tight
  // deadline and a stall fault plan, so those requests are shed in queue
  // or cancelled mid-run while the rest of the mix keeps flowing. Reports
  // the shed rate of the tight slice and the latency the *survivors* paid
  // — the robustness number: deadlines must cost the well-behaved load
  // nothing but queue contention.
  ServerConfig dl_config;
  dl_config.pool_ranks = 8;
  dl_config.workers = 4;
  dl_config.max_queue = 256;
  MiningServer deadline_server(dl_config);
  deadline_server.datasets().RegisterLoaded("retail",
                                            pam::TransactionDatabase(retail));
  deadline_server.datasets().RegisterLoaded("web",
                                            pam::TransactionDatabase(web));
  const int dl_clients = smoke ? 2 : 4;
  const int dl_iters = smoke ? 8 : 24;
  const int kTightEvery = 4;  // 25% tight-deadline fraction
  std::vector<std::vector<double>> survivor_lat(
      static_cast<std::size_t>(dl_clients));
  std::atomic<int> tight_total{0}, tight_shed{0}, dl_wrong{0};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < dl_clients; ++c) {
      threads.emplace_back([&, c] {
        constexpr std::size_t kMixSize = sizeof(kMix) / sizeof(kMix[0]);
        for (int i = 0; i < dl_iters; ++i) {
          const int cell_idx = c * dl_iters + i;
          const MixCell& cell =
              kMix[static_cast<std::size_t>(cell_idx) % kMixSize];
          MiningRequest request = RequestOf(cell);
          const bool tight = cell_idx % kTightEvery == 0;
          if (tight) {
            // Slowed by an always-stall plan and given a deadline it
            // cannot reliably make; forced parallel so the stalls apply.
            request.algorithm = MiningAlgorithm::kCD;
            request.num_ranks = 3;
            request.config.fault = pam::FaultConfig::Uniform(
                pam::FaultKind::kStall, 1.0,
                /*seed=*/static_cast<std::uint64_t>(cell_idx));
            request.config.fault.stall_ticks_ms = 40;
            request.config.fault.recv_timeout_ms = 120000;
            request.deadline_ms = 30.0;
            ++tight_total;
          }
          const auto start = std::chrono::steady_clock::now();
          ServeResponse response = deadline_server.Execute(std::move(request));
          const auto end = std::chrono::steady_clock::now();
          switch (response.status) {
            case pam::serve::ServeStatus::kOk:
              survivor_lat[static_cast<std::size_t>(c)].push_back(
                  std::chrono::duration<double>(end - start).count());
              break;
            case pam::serve::ServeStatus::kDeadlineExceeded:
              ++tight_shed;
              break;
            default:
              std::printf("UNEXPECTED deadline-mix response: %s (%s)\n",
                          pam::serve::ServeStatusName(response.status),
                          response.error.c_str());
              ++dl_wrong;
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const ServerStats dl_stats = deadline_server.Stats();
  deadline_server.Shutdown();
  if (dl_wrong.load() > 0) mismatch = true;
  if (dl_stats.admitted != dl_stats.completed + dl_stats.mining_faults +
                               dl_stats.cancelled +
                               dl_stats.deadline_exceeded) {
    std::printf("MISMATCH: deadline-mix accounting does not balance\n");
    mismatch = true;
  }
  std::vector<double> survivors;
  for (const auto& per_client : survivor_lat) {
    survivors.insert(survivors.end(), per_client.begin(), per_client.end());
  }
  std::sort(survivors.begin(), survivors.end());
  const double shed_rate =
      tight_total.load() > 0
          ? static_cast<double>(tight_shed.load()) / tight_total.load()
          : 0.0;
  const double surv_p95 = PercentileMs(survivors, 0.95);
  const double surv_p99 = PercentileMs(survivors, 0.99);
  std::printf(
      "deadline mix: %d req (%d tight @30ms), shed rate %.0f%%, %zu "
      "survivors p95 %.1fms p99 %.1fms, %llu expired in queue\n",
      dl_clients * dl_iters, tight_total.load(), shed_rate * 100.0,
      survivors.size(), surv_p95, surv_p99,
      static_cast<unsigned long long>(dl_stats.expired_in_queue));

  // Result cache, hot vs cold (DESIGN.md §15): the same mix driven twice
  // through a cache-enabled server. The first pass mines (4 of the 8 mix
  // cells are distinct mining problems once the canonical digest strips
  // the formulation knobs — the other 4 hit immediately); the second pass
  // is all hits. A hit must be byte-identical to the solo reference and
  // lease zero ranks, and the latency gap is the point of the feature.
  ServerConfig rc_config;
  rc_config.pool_ranks = 8;
  rc_config.workers = 4;
  rc_config.max_queue = 256;
  rc_config.result_cache = true;
  MiningServer rc_server(rc_config);
  rc_server.datasets().RegisterLoaded("retail",
                                      pam::TransactionDatabase(retail));
  rc_server.datasets().RegisterLoaded("web", pam::TransactionDatabase(web));
  std::vector<double> rc_miss_lat, rc_hit_lat;
  const std::uint64_t rc_leases_before = rc_server.pool().LeasesGranted();
  std::uint64_t rc_leases_after_cold = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const MixCell& cell : kMix) {
      const auto start = std::chrono::steady_clock::now();
      ServeResponse response = rc_server.Execute(RequestOf(cell));
      const auto end = std::chrono::steady_clock::now();
      const double lat =
          std::chrono::duration<double>(end - start).count();
      if (!response.ok()) {
        std::printf("UNEXPECTED result-cache response: %s (%s)\n",
                    pam::serve::ServeStatusName(response.status),
                    response.error.c_str());
        mismatch = true;
        continue;
      }
      (response.from_result_cache ? rc_hit_lat : rc_miss_lat).push_back(lat);
      if (pass == 1 && !response.from_result_cache) {
        std::printf("MISMATCH: second-pass request missed the result cache "
                    "(%s/%s)\n",
                    cell.tenant,
                    pam::MiningAlgorithmName(cell.algorithm).c_str());
        mismatch = true;
      }
      // Hits must be byte-identical to the solo reference, like misses.
      if (FlattenItemsets(response.report->frequent) != references[&cell]) {
        std::printf("MISMATCH: result-cache response != solo run (%s/%s)\n",
                    cell.tenant,
                    pam::MiningAlgorithmName(cell.algorithm).c_str());
        mismatch = true;
      }
    }
    if (pass == 0) rc_leases_after_cold = rc_server.pool().LeasesGranted();
  }
  const std::uint64_t rc_hot_leases =
      rc_server.pool().LeasesGranted() - rc_leases_after_cold;
  const ServerStats rc_stats = rc_server.Stats();
  rc_server.Shutdown();
  if (rc_hot_leases != 0) {
    std::printf("MISMATCH: hot pass leased %llu ranks (want 0)\n",
                static_cast<unsigned long long>(rc_hot_leases));
    mismatch = true;
  }
  std::sort(rc_miss_lat.begin(), rc_miss_lat.end());
  std::sort(rc_hit_lat.begin(), rc_hit_lat.end());
  const double rc_cold_p50 = PercentileMs(rc_miss_lat, 0.50);
  const double rc_hot_p50 = PercentileMs(rc_hit_lat, 0.50);
  std::printf(
      "result cache: %zu mined (p50 %.2fms) vs %zu hits (p50 %.3fms), "
      "%.0fx hot-path latency drop, %llu bytes resident, 0 hot leases "
      "(leases: %llu cold)\n",
      rc_miss_lat.size(), rc_cold_p50, rc_hit_lat.size(), rc_hot_p50,
      rc_hot_p50 > 0.0 ? rc_cold_p50 / rc_hot_p50 : 0.0,
      static_cast<unsigned long long>(rc_stats.result_resident_bytes),
      static_cast<unsigned long long>(rc_leases_after_cold -
                                      rc_leases_before));

  // Weighted fairness (DESIGN.md §15): a weight-3 and a weight-1 tenant
  // flood a one-worker server with equal-cost jobs; SFQ must hand the
  // heavy tenant ~3x the completions in any saturated window. A slow
  // primer job holds the worker while both backlogs queue, making the
  // dispatch order deterministic.
  ServerConfig wf_config;
  wf_config.pool_ranks = 4;
  wf_config.workers = 1;
  wf_config.max_queue = 256;
  wf_config.tenant_quotas["heavy"].weight = 3.0;
  wf_config.tenant_quotas["light"].weight = 1.0;
  MiningServer wf_server(wf_config);
  wf_server.datasets().RegisterLoaded("retail",
                                      pam::TransactionDatabase(retail));
  wf_server.datasets().RegisterLoaded("web", pam::TransactionDatabase(web));
  std::future<ServeResponse> wf_primer =
      wf_server.Submit(RequestOf(kMix[1]));  // CD/4: long enough to queue behind
  std::mutex wf_mu;
  std::vector<std::string> wf_order;
  const int wf_jobs_per_tenant = smoke ? 8 : 16;
  for (int i = 0; i < wf_jobs_per_tenant; ++i) {
    for (const char* tenant : {"heavy", "light"}) {
      MiningRequest request;
      request.tenant = tenant;
      request.dataset = "web";
      request.algorithm = MiningAlgorithm::kSerial;
      request.num_ranks = 1;
      request.config.apriori.minsup_fraction = 0.03;
      wf_server.SubmitWith(std::move(request),
                           [&wf_mu, &wf_order, tenant](ServeResponse r) {
                             if (!r.ok()) return;
                             std::lock_guard<std::mutex> lock(wf_mu);
                             wf_order.emplace_back(tenant);
                           });
    }
  }
  wf_primer.get();
  wf_server.Shutdown();
  const std::size_t wf_window =
      std::min<std::size_t>(8, wf_order.size());
  const auto wf_heavy_in_window = static_cast<std::size_t>(std::count(
      wf_order.begin(), wf_order.begin() + static_cast<std::ptrdiff_t>(wf_window),
      "heavy"));
  const std::size_t wf_light_in_window = wf_window - wf_heavy_in_window;
  const double wf_ratio =
      wf_light_in_window > 0
          ? static_cast<double>(wf_heavy_in_window) / wf_light_in_window
          : static_cast<double>(wf_heavy_in_window);
  std::printf(
      "weighted fairness: 3:1 weights, first %zu completions split "
      "%zu/%zu (ratio %.1f), %zu jobs per tenant all served\n",
      wf_window, wf_heavy_in_window, wf_light_in_window, wf_ratio,
      wf_order.size() / 2);
  if (wf_order.size() != 2 * static_cast<std::size_t>(wf_jobs_per_tenant)) {
    std::printf("MISMATCH: weighted-fairness jobs lost (%zu of %d)\n",
                wf_order.size(), 2 * wf_jobs_per_tenant);
    mismatch = true;
  }

  // Result-cache hits over loopback TCP (DESIGN.md §15): what a remote
  // client waits for, encode, socket and decode included.
  const NetHitResult net_hit = RunNetHit(smoke);
  std::printf(
      "net hit: T15.I6 %zu tx, %zu itemsets, %zu rules, %zu-byte frame; "
      "fresh mine %.2fms, %zu hits p50 %.3fms p99 %.3fms\n",
      net_hit.transactions, net_hit.itemsets, net_hit.rules,
      net_hit.frame_bytes, net_hit.mine_ms, net_hit.hits, net_hit.p50_ms,
      net_hit.p99_ms);
  if (!net_hit.ok) {
    std::printf("MISMATCH: a loopback response failed or differed from the "
                "solo run\n");
    mismatch = true;
  }

  std::FILE* f = std::fopen("BENCH_serve.json", "w");
  if (f != nullptr) {
    std::fprintf(f,
                 "{\n  \"bench\": \"serve\",\n  \"smoke\": %s,\n"
                 "  \"build_type\": \"%s\",\n  \"host_cpu_cores\": %u,\n"
                 "  \"pool_ranks\": %d,\n  \"workers\": %d,\n"
                 "  \"tenants\": 4,\n  \"datasets\": 2,\n"
                 "  \"retail_transactions\": %zu,\n"
                 "  \"web_transactions\": %zu,\n  \"sections\": [\n",
                 smoke ? "true" : "false", PAM_BUILD_TYPE,
                 std::thread::hardware_concurrency(), config.pool_ranks,
                 config.workers, retail.size(), web.size());
    for (std::size_t i = 0; i < sections.size(); ++i) {
      const SectionResult& s = sections[i];
      std::fprintf(
          f,
          "    {\"clients\": %d, \"requests\": %zu, \"wall_seconds\": "
          "%.4f, \"throughput_rps\": %.2f, \"p50_ms\": %.3f, \"p95_ms\": "
          "%.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f, \"cache_hits\": "
          "%llu, \"cache_misses\": %llu}%s\n",
          s.clients, s.requests, s.wall_seconds, s.throughput_rps,
          s.p50_ms, s.p95_ms, s.p99_ms, s.max_ms,
          static_cast<unsigned long long>(s.cache_hits),
          static_cast<unsigned long long>(s.cache_misses),
          i + 1 < sections.size() ? "," : "");
    }
    std::fprintf(
        f,
        "  ],\n  \"overload\": {\"submitted\": %llu, \"admitted\": %llu, "
        "\"queue_full\": %llu, \"tenant_in_flight\": %llu},\n",
        static_cast<unsigned long long>(burst_stats.submitted),
        static_cast<unsigned long long>(burst_stats.admitted),
        static_cast<unsigned long long>(burst_stats.rejected_queue_full),
        static_cast<unsigned long long>(
            burst_stats.rejected_tenant_in_flight));
    std::fprintf(
        f,
        "  \"deadline_mix\": {\"requests\": %d, \"tight_fraction\": %.2f, "
        "\"deadline_ms\": 30.0, \"tight_requests\": %d, \"shed_rate\": "
        "%.3f, \"expired_in_queue\": %llu, \"survivors\": %zu, "
        "\"survivor_p95_ms\": %.3f, \"survivor_p99_ms\": %.3f},\n",
        dl_clients * dl_iters, 1.0 / kTightEvery, tight_total.load(),
        shed_rate, static_cast<unsigned long long>(dl_stats.expired_in_queue),
        survivors.size(), surv_p95, surv_p99);
    std::fprintf(
        f,
        "  \"result_cache\": {\"mined\": %zu, \"hits\": %zu, "
        "\"cold_p50_ms\": %.3f, \"hot_p50_ms\": %.4f, \"speedup\": %.1f, "
        "\"hot_leases\": %llu, \"resident_bytes\": %llu},\n",
        rc_miss_lat.size(), rc_hit_lat.size(), rc_cold_p50, rc_hot_p50,
        rc_hot_p50 > 0.0 ? rc_cold_p50 / rc_hot_p50 : 0.0,
        static_cast<unsigned long long>(rc_hot_leases),
        static_cast<unsigned long long>(rc_stats.result_resident_bytes));
    std::fprintf(
        f,
        "  \"weighted_fairness\": {\"heavy_weight\": 3.0, "
        "\"light_weight\": 1.0, \"jobs_per_tenant\": %d, \"window\": %zu, "
        "\"heavy_in_window\": %zu, \"light_in_window\": %zu, "
        "\"ratio\": %.2f},\n",
        wf_jobs_per_tenant, wf_window, wf_heavy_in_window,
        wf_light_in_window, wf_ratio);
    std::fprintf(
        f,
        "  \"net_hit\": {\"transactions\": %zu, \"itemsets\": %zu, "
        "\"rules\": %zu, \"frame_bytes\": %zu, \"hits\": %zu, "
        "\"mine_ms\": %.3f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}\n}\n",
        net_hit.transactions, net_hit.itemsets, net_hit.rules,
        net_hit.frame_bytes, net_hit.hits, net_hit.mine_ms, net_hit.p50_ms,
        net_hit.p99_ms);
    std::fclose(f);
    std::printf("wrote BENCH_serve.json\n");
  }

  if (mismatch) {
    std::printf("FAILED: served results diverged from solo runs\n");
    return 1;
  }
  std::printf("all served results byte-identical to solo runs\n");
  return 0;
}
