// pam_client: the network client of pam_serve --listen. Speaks the
// versioned wire protocol (src/pam/serve/protocol.h) over TCP and reads
// the exact same text line protocol as the server's script mode, so a
// request script runs unchanged against an in-process or a remote server:
//
//   pam_serve --datasets retail=retail.bin --listen --port-file p &
//   pam_client --port-file p <<'EOF'
//   mine id=r1 tenant=acme dataset=retail algorithm=hd ranks=4 minsup=2
//   stats
//   EOF
//
// Responses print in arrival order (the server schedules by weighted fair
// queueing, so completion order is not submission order — ids correlate).
// Exit code 1 when any response is a mining fault, the stream dies early,
// or a line fails to parse; 0 otherwise.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "pam/serve/net_server.h"
#include "pam/serve/protocol.h"
#include "pam/util/flags.h"

namespace {

constexpr const char* kUsage = R"(usage: pam_client [flags] < requests
  --host H       server host (default 127.0.0.1)
  --port P       server port
  --port-file F  read the port from F (written by pam_serve --port-file)
  --script F     read request lines from F instead of stdin
  --quiet        print only warnings and errors
request lines: same as pam_serve script mode —
  mine id=TAG tenant=NAME dataset=NAME [algorithm=ALG] [ranks=P]
       [minsup=PCT] [minconf=PCT] [rules] [threads=T] [max-k=K]
       [deadline-ms=D]
  cancel TAG
  stats
  shutdown       ask the daemon to drain and exit (needs --allow-shutdown)
)";

/// What we remember about an in-flight mine tag, to render its response.
struct Submitted {
  std::string id;
  std::string tenant;
  std::string dataset;
};

}  // namespace

int main(int argc, char** argv) {
  pam::FlagParser flags;
  if (!flags.Parse(argc, argv)) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  for (const std::string& f : flags.UnknownFlags(
           {"host", "port", "port-file", "script", "quiet", "help"})) {
    std::fprintf(stderr, "error: unknown flag --%s\n%s", f.c_str(), kUsage);
    return 2;
  }
  if (flags.GetBool("help", false)) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  int port = static_cast<int>(flags.GetInt("port", 0));
  if (!flags.error().empty()) {
    std::fprintf(stderr, "error: %s\n%s", flags.error().c_str(), kUsage);
    return 2;
  }
  if (flags.Has("port-file")) {
    std::ifstream port_file(flags.GetString("port-file", ""));
    if (!(port_file >> port)) {
      std::fprintf(stderr, "error: cannot read --port-file %s\n",
                   flags.GetString("port-file", "").c_str());
      return 2;
    }
  }
  if (port <= 0) {
    std::fprintf(stderr, "error: --port or --port-file required\n%s",
                 kUsage);
    return 2;
  }

  pam::serve::NetClient client;
  const std::string host = flags.GetString("host", "127.0.0.1");
  pam::Status status = client.Connect(host, port);
  if (!status.ok()) {
    std::fprintf(stderr, "error: connect %s:%d: %s\n", host.c_str(), port,
                 status.message().c_str());
    return 1;
  }

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
  const bool quiet = flags.GetBool("quiet", false);

  // Send everything first; the server pipelines and responses arrive as
  // they complete. Tags are assigned locally; ids map onto them so
  // `cancel TAG` lines and response rendering keep the script's names.
  std::map<std::uint64_t, Submitted> inflight;
  std::map<std::string, std::uint64_t> tag_of_id;
  std::uint64_t next_tag = 1;
  std::size_t expected = 0;  // kResponse + kStatsResponse frames due back
  int failures = 0;
  std::string line;
  while (std::getline(in, line)) {
    pam::Result<pam::serve::Command> parsed =
        pam::serve::ParseCommandLine(line);
    if (!parsed.ok()) {
      std::fprintf(stderr, "warning: %s; line ignored\n",
                   parsed.status().message().c_str());
      ++failures;
      continue;
    }
    pam::serve::Command& command = parsed.value();
    status = pam::Status::Ok();
    switch (command.verb) {
      case pam::serve::Command::Verb::kNone:
        break;
      case pam::serve::Command::Verb::kMine: {
        const std::uint64_t tag = next_tag++;
        Submitted s;
        s.id = command.id.empty() ? "req" + std::to_string(tag)
                                  : command.id;
        s.tenant = command.request.tenant;
        s.dataset = command.request.dataset;
        tag_of_id[s.id] = tag;
        inflight[tag] = std::move(s);
        ++expected;
        status = client.SendMine(tag, command.request);
        break;
      }
      case pam::serve::Command::Verb::kCancel: {
        auto it = tag_of_id.find(command.id);
        if (it == tag_of_id.end()) {
          std::fprintf(stderr,
                       "warning: cancel of unknown id '%s' ignored\n",
                       command.id.c_str());
          ++failures;
        } else {
          status = client.SendCancel(it->second);
        }
        break;
      }
      case pam::serve::Command::Verb::kStats:
        ++expected;
        status = client.SendStats(next_tag++);
        break;
      case pam::serve::Command::Verb::kShutdown:
        status = client.SendShutdown();
        break;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "error: send: %s\n", status.message().c_str());
      return 1;
    }
  }
  // Half-close: tells the server this is everything; pending responses
  // still flow back until the stream drains.
  client.CloseWrite();

  while (expected > 0) {
    pam::Result<pam::serve::NetClient::ServerFrame> received =
        client.Recv();
    if (!received.ok()) {
      std::fprintf(stderr, "error: %s (%zu responses outstanding)\n",
                   received.status().message().c_str(), expected);
      return 1;
    }
    pam::serve::NetClient::ServerFrame& frame = received.value();
    switch (frame.type) {
      case pam::serve::FrameType::kResponse: {
        --expected;
        auto it = inflight.find(frame.response.tag);
        const Submitted s =
            it == inflight.end() ? Submitted{} : it->second;
        if (it != inflight.end()) inflight.erase(it);
        if (!quiet) {
          std::printf(
              "%s\n",
              pam::serve::FormatResponseLine(
                  s.id, s.tenant, s.dataset, frame.response.status,
                  frame.response.error,
                  frame.response.frequent.TotalCount(),
                  frame.response.rules.size(),
                  frame.response.queue_seconds * 1e3,
                  frame.response.service_seconds * 1e3,
                  frame.response.from_result_cache)
                  .c_str());
        }
        if (frame.response.status == pam::serve::ServeStatus::kMiningFault) {
          ++failures;
        }
        break;
      }
      case pam::serve::FrameType::kStatsResponse:
        --expected;
        std::fputs(
            pam::serve::FormatStatsSummary(frame.stats.stats).c_str(),
            stdout);
        break;
      case pam::serve::FrameType::kError:
        // Per-request refusals (unknown tag, forbidden shutdown) leave
        // the stream healthy; anything else means the connection is done.
        std::fprintf(stderr, "warning: server error: %s: %s\n",
                     pam::serve::WireErrorName(frame.error.error),
                     frame.error.message.c_str());
        ++failures;
        if (pam::serve::WireErrorClosesConnection(frame.error.error)) {
          return 1;
        }
        break;
      default:
        std::fprintf(stderr, "warning: unexpected frame type %d\n",
                     static_cast<int>(frame.type));
        ++failures;
        break;
    }
  }
  client.Close();
  return failures == 0 ? 0 : 1;
}
