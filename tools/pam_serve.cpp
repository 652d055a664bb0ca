// pam_serve: mining-as-a-service — a long-lived multi-tenant daemon over
// the MiningSession facade. Datasets are registered up front and each is
// cached as one shared immutable CSR database; requests are
// admission-controlled against the bounded queue and per-tenant quotas,
// scheduled by weighted fair queueing, and execute concurrently over the
// shared rank pool.
//
// Two front-ends over the same server and the same protocol module
// (src/pam/serve/protocol.h):
//
//   # script mode (default): text command lines on stdin or --script
//   pam_serve --datasets retail=retail.bin,web=web.bin --ranks 8 <<'EOF'
//   mine id=r1 tenant=acme dataset=retail algorithm=hd ranks=4 minsup=2
//   mine id=r2 tenant=acme dataset=retail algorithm=serial minsup=2 rules
//   cancel r1
//   EOF
//
//   # network mode: the versioned length-prefixed wire protocol over TCP
//   pam_serve --datasets retail=retail.bin --listen --port 7733
//   pam_client --port 7733 <<'EOF'
//   mine id=r1 tenant=acme dataset=retail algorithm=hd ranks=4 minsup=2
//   EOF
//
// Script mode prints responses in submission order once the input is
// exhausted, then a server-counter summary. Network mode serves until
// SIGINT/SIGTERM or (with --allow-shutdown) a client shutdown frame.

#include <csignal>
#include <cstdio>
#include <fstream>
#include <future>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "pam/obs/chrome_trace.h"
#include "pam/serve/net_server.h"
#include "pam/serve/protocol.h"
#include "pam/serve/server.h"
#include "pam/tdb/io.h"
#include "pam/util/flags.h"

namespace {

constexpr const char* kUsage = R"(usage: pam_serve [flags] < requests
  --datasets LIST    dataset catalog NAME=PATH[,NAME=PATH...] (required)
  --format FMT       binary | text basket files (default binary)
  --ranks P          shared rank pool size (default 8)
  --workers W        worker threads (default 4)
  --queue N          admission queue bound (default 64)
  --tenant-inflight N  per-tenant max in-flight requests (default 0 = off)
  --tenant-budget S  per-tenant rank-seconds budget (default 0 = off)
  --tenant-weights L fair-queueing weights NAME=W[,NAME=W...] (default 1)
  --default-deadline-ms D  deadline for requests carrying none (0 = off)
  --cache-budget-mb M  dataset cache resident budget in MiB (0 = off)
  --watchdog-ms W    cancel runs with no progress heartbeat for W ms (0 = off)
  --result-cache     serve repeated identical requests from the result cache
  --result-cache-budget-mb M  result cache resident budget in MiB (0 = off)
  --result-cache-ttl-ms T     result cache idle TTL (0 = never)
  --script F         read request lines from F instead of stdin
  --trace-out F      write the serve_request span timeline to F
  --quiet            print only the final counter summary
network mode:
  --listen           serve the wire protocol over TCP instead of stdin
  --bind ADDR        listen address (default 127.0.0.1)
  --port P           listen port (default 0 = ephemeral; printed at start)
  --port-file F      write the bound port to F (for scripted clients)
  --allow-shutdown   honor client shutdown frames (for CI smoke)

request lines (one per request; '#' starts a comment):
  mine id=TAG tenant=NAME dataset=NAME [algorithm=ALG] [ranks=P]
       [minsup=PCT] [minconf=PCT] [rules] [threads=T] [max-k=K]
       [deadline-ms=D]
  cancel TAG         fire the cancel token of an earlier mine line
  stats              print the server counter summary so far
)";

struct PendingRequest {
  std::string id;
  std::string tenant;
  std::string dataset;
  std::future<pam::serve::ServeResponse> future;
};

/// Parses NAME=VALUE comma lists (datasets, tenant weights).
bool ParsePairs(const std::string& list,
                std::vector<std::pair<std::string, std::string>>* pairs) {
  std::stringstream in(list);
  std::string entry;
  while (std::getline(in, entry, ',')) {
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == entry.size()) {
      return false;
    }
    pairs->emplace_back(entry.substr(0, eq), entry.substr(eq + 1));
  }
  return true;
}

volatile std::sig_atomic_t g_interrupted = 0;
pam::serve::NetServer* g_net = nullptr;

void HandleSignal(int) {
  g_interrupted = 1;
  // Stop() is not async-signal-safe in general; flag + a second wake via
  // the process dying is the fallback. In practice the CI path uses the
  // shutdown frame, and interactive ^C lands here between poll rounds.
  if (g_net != nullptr) g_net->Stop();
}

int RunScriptMode(pam::serve::MiningServer& server, std::istream& in,
                  bool quiet) {
  std::vector<PendingRequest> pending;
  // Every mine line gets a client-held CancelToken; a later `cancel TAG`
  // line fires it — the server observes the shared token and sheds the
  // request whether it is still queued or already mid-run.
  std::map<std::string, pam::CancelToken> tokens;
  std::string line;
  int bad_lines = 0;
  while (std::getline(in, line)) {
    pam::Result<pam::serve::Command> parsed =
        pam::serve::ParseCommandLine(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "warning: %s; line ignored\n",
                   parsed.status().message().c_str());
      ++bad_lines;
      continue;
    }
    pam::serve::Command& command = parsed.value();
    switch (command.verb) {
      case pam::serve::Command::Verb::kNone:
        break;
      case pam::serve::Command::Verb::kCancel: {
        auto it = tokens.find(command.id);
        if (it == tokens.end()) {
          std::fprintf(stderr,
                       "warning: cancel of unknown id '%s' ignored\n",
                       command.id.c_str());
          ++bad_lines;
        } else {
          it->second.Cancel();
        }
        break;
      }
      case pam::serve::Command::Verb::kStats:
        std::fputs(
            pam::serve::FormatStatsSummary(server.Stats()).c_str(),
            stdout);
        break;
      case pam::serve::Command::Verb::kShutdown:
        // Script mode already shuts down at EOF; nothing extra to do.
        break;
      case pam::serve::Command::Verb::kMine: {
        PendingRequest p;
        p.id = command.id.empty() ? "req" + std::to_string(pending.size())
                                  : command.id;
        p.tenant = command.request.tenant;
        p.dataset = command.request.dataset;
        command.request.cancel = pam::CancelToken::Create();
        tokens[p.id] = command.request.cancel;
        p.future = server.Submit(std::move(command.request));
        pending.push_back(std::move(p));
        break;
      }
    }
  }

  int failures = bad_lines;
  for (PendingRequest& p : pending) {
    pam::serve::ServeResponse response = p.future.get();
    if (!quiet) {
      const pam::MiningReport* report = response.report.get();  // kOk only
      std::printf("%s\n",
                  pam::serve::FormatResponseLine(
                      p.id, p.tenant, p.dataset, response.status,
                      response.error,
                      report != nullptr ? report->frequent.TotalCount() : 0,
                      report != nullptr ? report->rules.size() : 0,
                      response.queue_seconds * 1e3,
                      response.service_seconds * 1e3,
                      response.from_result_cache)
                      .c_str());
    }
    // Deadline and cancel outcomes are expected typed responses, not tool
    // failures; only infrastructure faults flip the exit code.
    if (response.status == pam::serve::ServeStatus::kMiningFault) ++failures;
  }
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  pam::FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  const std::vector<std::string> known = {
      "datasets", "format", "ranks",    "workers",   "queue",
      "tenant-inflight",    "tenant-budget",         "tenant-weights",
      "default-deadline-ms",                         "cache-budget-mb",
      "watchdog-ms",        "result-cache",          "result-cache-budget-mb",
      "result-cache-ttl-ms",
      "listen",   "bind",   "port",     "port-file", "allow-shutdown",
      "script",   "trace-out", "quiet", "help"};
  for (const std::string& f : flags.UnknownFlags(known)) {
    std::fprintf(stderr, "error: unknown flag --%s\n%s", f.c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false) || !flags.Has("datasets")) {
    std::fputs(kUsage, flags.Has("datasets") ? stdout : stderr);
    return flags.GetBool("help", false) ? 0 : 2;
  }

  pam::serve::ServerConfig config;
  config.pool_ranks = static_cast<int>(flags.GetInt("ranks", 8));
  config.workers = static_cast<int>(flags.GetInt("workers", 4));
  config.max_queue =
      static_cast<std::size_t>(flags.GetInt("queue", 64));
  config.default_quota.max_in_flight =
      static_cast<int>(flags.GetInt("tenant-inflight", 0));
  config.default_quota.rank_seconds = flags.GetDouble("tenant-budget", 0.0);
  config.default_deadline_ms = flags.GetDouble("default-deadline-ms", 0.0);
  config.cache_budget_bytes = static_cast<std::size_t>(
      flags.GetDouble("cache-budget-mb", 0.0) * 1024.0 * 1024.0);
  config.watchdog_ms = flags.GetDouble("watchdog-ms", 0.0);
  config.result_cache = flags.GetBool("result-cache", false);
  config.result_cache_budget_bytes = static_cast<std::size_t>(
      flags.GetDouble("result-cache-budget-mb", 0.0) * 1024.0 * 1024.0);
  config.result_cache_ttl_ms = flags.GetDouble("result-cache-ttl-ms", 0.0);
  const int port = static_cast<int>(flags.GetInt("port", 0));
  if (!flags.error().empty()) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  if (flags.Has("tenant-weights")) {
    std::vector<std::pair<std::string, std::string>> weights;
    if (!ParsePairs(flags.GetString("tenant-weights", ""), &weights)) {
      std::fprintf(stderr, "error: bad --tenant-weights entry\n%s", kUsage);
      return 2;
    }
    for (const auto& [tenant, weight] : weights) {
      pam::serve::TenantQuota quota = config.default_quota;
      if (!pam::FlagParser::ParseDouble(weight, &quota.weight)) {
        std::fprintf(stderr, "error: bad --tenant-weights entry\n%s",
                     kUsage);
        return 2;
      }
      config.tenant_quotas[tenant] = quota;
    }
  }

  pam::serve::MiningServer server(config);
  pam::obs::ChromeTraceWriter trace_writer;
  if (flags.Has("trace-out")) server.AddTraceSink(&trace_writer);

  // Register the catalog: NAME=PATH pairs, loaded lazily by the cache on
  // the first request that names them.
  const std::string format = flags.GetString("format", "binary");
  std::vector<std::pair<std::string, std::string>> catalog;
  if (!ParsePairs(flags.GetString("datasets", ""), &catalog) ||
      catalog.empty()) {
    std::fprintf(stderr, "error: bad --datasets list\n%s", kUsage);
    return 2;
  }
  for (const auto& [name, path] : catalog) {
    server.datasets().Register(name, [path, format] {
      return format == "text" ? pam::ReadText(path) : pam::ReadBinary(path);
    });
  }

  const bool quiet = flags.GetBool("quiet", false);
  std::printf("pam_serve: %zu datasets, %d ranks, %d workers, queue %zu\n",
              catalog.size(), config.pool_ranks, config.workers,
              config.max_queue);

  int failures = 0;
  if (flags.GetBool("listen", false)) {
    pam::serve::NetServerConfig net_config;
    net_config.bind_address = flags.GetString("bind", "127.0.0.1");
    net_config.port = port;
    net_config.allow_shutdown = flags.GetBool("allow-shutdown", false);
    pam::serve::NetServer net(&server, net_config);
    const pam::Status status = net.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("listening on %s:%d\n", net_config.bind_address.c_str(),
                net.port());
    std::fflush(stdout);
    if (flags.Has("port-file")) {
      std::ofstream port_file(flags.GetString("port-file", ""));
      port_file << net.port() << "\n";
      if (!port_file) {
        std::fprintf(stderr, "error: cannot write --port-file\n");
        return 1;
      }
    }
    g_net = &net;
    std::signal(SIGINT, HandleSignal);
    std::signal(SIGTERM, HandleSignal);
    const bool remote_shutdown = net.WaitForShutdownRequest();
    std::printf(remote_shutdown ? "shutdown requested by client\n"
                                : "interrupted\n");
    // Drain the mining server first so every accepted request's response
    // frame is queued, then stop the front-end (it flushes what it can).
    server.Shutdown();
    net.Stop();
    g_net = nullptr;
  } else {
    std::ifstream script;
    if (flags.Has("script")) {
      script.open(flags.GetString("script", ""));
      if (!script) {
        std::fprintf(stderr, "error: cannot open --script %s\n",
                     flags.GetString("script", "").c_str());
        return 2;
      }
    }
    std::istream& in = flags.Has("script") ? script : std::cin;
    failures = RunScriptMode(server, in, quiet);
    server.Shutdown();
  }

  std::fputs(pam::serve::FormatStatsSummary(server.Stats()).c_str(),
             stdout);

  if (flags.Has("trace-out")) {
    const std::string out_path = flags.GetString("trace-out", "");
    const pam::Status status = trace_writer.WriteFile(out_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.message().c_str());
      return 1;
    }
    std::printf("wrote %zu serve trace events to %s\n", trace_writer.size(),
                out_path.c_str());
  }
  return failures == 0 ? 0 : 1;
}
