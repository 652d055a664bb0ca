// The request path as a client sees it: a MiningServer behind a loopback
// NetServer with one connected NetClient, driven closed-loop (send, wait).
#ifndef E2EBENCH_HARNESS_SERVE_H_
#define E2EBENCH_HARNESS_SERVE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "pam/serve/net_server.h"
#include "pam/serve/protocol.h"
#include "pam/serve/server.h"

namespace e2e {

/// Server + TCP front-end + one connected client, serving one dataset
/// whose loader reads `basket_path`. Construction starts and connects
/// everything; the destructor closes the client, stops the front-end, then
/// drains the server.
class ServeStack {
 public:
  ServeStack(const pam::serve::ServerConfig& config,
             const std::string& dataset_id, const std::string& basket_path);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  /// Empty when start-up succeeded, else what failed.
  const std::string& error() const { return error_; }

  /// Sends one request and blocks for its response frame. Fails on a
  /// transport error or a frame that is not the awaited response.
  pam::Result<pam::serve::ResponseFrame> Call(std::uint64_t tag,
                                              const pam::MiningRequest& req);

  /// One kStats round trip.
  pam::Result<pam::serve::ServerStats> Stats(std::uint64_t tag);

 private:
  std::unique_ptr<pam::serve::MiningServer> server_;
  std::unique_ptr<pam::serve::NetServer> net_;
  pam::serve::NetClient client_;
  std::string error_;
};

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_SERVE_H_
