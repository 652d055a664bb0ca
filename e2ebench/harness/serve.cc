#include "harness/serve.h"

#include "pam/tdb/io.h"

namespace e2e {

using pam::serve::FrameType;
using pam::serve::NetClient;
using pam::serve::ResponseFrame;

ServeStack::ServeStack(const pam::serve::ServerConfig& config,
                       const std::string& dataset_id,
                       const std::string& basket_path)
    : server_(std::make_unique<pam::serve::MiningServer>(config)) {
  server_->datasets().Register(
      dataset_id, [basket_path] { return pam::ReadBinary(basket_path); });
  net_ = std::make_unique<pam::serve::NetServer>(
      server_.get(), pam::serve::NetServerConfig{});
  const pam::Status started = net_->Start();
  if (!started.ok()) {
    error_ = "net server: " + started.message();
    return;
  }
  const pam::Status connected = client_.Connect("127.0.0.1", net_->port());
  if (!connected.ok()) error_ = "connect: " + connected.message();
}

ServeStack::~ServeStack() {
  client_.Close();
  net_->Stop();
  server_->Shutdown();
}

pam::Result<ResponseFrame> ServeStack::Call(std::uint64_t tag,
                                            const pam::MiningRequest& req) {
  const pam::Status sent = client_.SendMine(tag, req);
  if (!sent.ok()) return sent;
  pam::Result<NetClient::ServerFrame> frame = client_.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type != FrameType::kResponse ||
      frame.value().response.tag != tag) {
    return pam::Status::Error("unexpected frame");
  }
  return std::move(frame.value().response);
}

pam::Result<pam::serve::ServerStats> ServeStack::Stats(std::uint64_t tag) {
  const pam::Status sent = client_.SendStats(tag);
  if (!sent.ok()) return sent;
  pam::Result<NetClient::ServerFrame> frame = client_.Recv();
  if (!frame.ok()) return frame.status();
  if (frame.value().type != FrameType::kStatsResponse ||
      frame.value().stats.tag != tag) {
    return pam::Status::Error("unexpected frame");
  }
  return frame.value().stats.stats;
}

}  // namespace e2e
