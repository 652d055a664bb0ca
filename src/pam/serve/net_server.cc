#include "pam/serve/net_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <utility>

namespace pam::serve {

namespace {

Status Errno(const std::string& what) {
  return Status::Error(what + ": " + std::strerror(errno));
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Writes the whole buffer on a blocking fd, riding out EINTR.
Status WriteAll(int fd, const std::byte* data, std::size_t size) {
  std::size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

/// One queued write: owned bytes (a whole frame, or a kResponse head)
/// followed by an optional shared payload, which is sent from the result
/// cache's own buffer and never copied.
struct Segment {
  std::vector<std::byte> bytes;
  PayloadHandle payload;
  /// Bytes of bytes ⧺ payload already written to the socket.
  std::size_t sent = 0;

  std::size_t size() const {
    return bytes.size() + (payload != nullptr ? payload->size() : 0);
  }
};

/// One finished request's encoded response, routed back to its
/// connection by id (the connection may be gone — then it is dropped).
struct Completion {
  std::uint64_t conn_id = 0;
  std::uint64_t tag = 0;
  Segment frame;
};

/// State shared between the loop thread and worker-thread completion
/// callbacks. Callbacks hold it via shared_ptr, so a callback firing
/// after Stop() (the MiningServer outlives the front-end) finds valid
/// memory and a closed flag rather than a dangling server.
struct NetServer::SharedState {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Completion> completions;
  int wake_write_fd = -1;
  bool stopped = false;
  bool shutdown_requested = false;
  std::uint64_t connections_accepted = 0;

  ~SharedState() {
    if (wake_write_fd >= 0) ::close(wake_write_fd);
  }

  void Push(Completion completion) {
    std::lock_guard<std::mutex> lock(mu);
    if (stopped) return;  // loop is gone; the response has no reader
    completions.push_back(std::move(completion));
    const char byte = 1;
    // The pipe is non-blocking: a full pipe is fine, the loop is already
    // scheduled to wake and will drain the whole queue.
    (void)::write(wake_write_fd, &byte, 1);
  }
};

struct NetServer::Connection {
  int fd = -1;
  std::uint64_t id = 0;
  FrameReader reader;
  bool negotiated = false;
  bool read_closed = false;
  bool close_after_flush = false;
  /// Frames not yet fully written, in the order they were queued.
  std::deque<Segment> out;
  /// In-flight kMine tags and their cancel tokens (fired on kCancel, and
  /// en masse when the connection dies with requests outstanding).
  std::map<std::uint64_t, CancelToken> inflight;

  explicit Connection(std::size_t max_frame_bytes)
      : reader(max_frame_bytes) {}
  Connection() : reader(FrameReader::kDefaultMaxFrameBytes) {}
};

NetServer::NetServer(MiningServer* server, const NetServerConfig& config)
    : server_(server), config_(config) {}

NetServer::~NetServer() { Stop(); }

Status NetServer::Start() {
  if (state_ != nullptr) return Status::Error("NetServer already started");

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Errno("socket");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(config_.port));
  if (::inet_pton(AF_INET, config_.bind_address.c_str(), &addr.sin_addr) !=
      1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Error("bad bind address '" + config_.bind_address + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const Status status = Errno("bind " + config_.bind_address + ":" +
                                std::to_string(config_.port));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 64) != 0) {
    const Status status = Errno("listen");
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (!SetNonBlocking(listen_fd_)) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Errno("fcntl listener");
  }

  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_NONBLOCK | O_CLOEXEC) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Errno("pipe2");
  }
  wake_read_fd_ = pipe_fds[0];
  state_ = std::make_shared<SharedState>();
  state_->wake_write_fd = pipe_fds[1];

  loop_ = std::thread([this] { LoopMain(); });
  return Status::Ok();
}

bool NetServer::WaitForShutdownRequest() {
  if (state_ == nullptr) return false;
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->cv.wait(lock, [this] {
    return state_->shutdown_requested || state_->stopped;
  });
  return state_->shutdown_requested;
}

std::uint64_t NetServer::ConnectionsAccepted() const {
  if (state_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(state_->mu);
  return state_->connections_accepted;
}

void NetServer::Stop() {
  if (state_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    if (state_->stopped) {
      // Already stopping/stopped; just make sure the loop is joined.
      if (loop_.joinable()) loop_.join();
      return;
    }
    state_->stopped = true;
    const char byte = 1;
    (void)::write(state_->wake_write_fd, &byte, 1);
  }
  state_->cv.notify_all();
  if (loop_.joinable()) loop_.join();
}

void NetServer::LoopMain() {
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> fd_conn;  // conn id per fds entry (0 = none)
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(state_->mu);
      if (state_->stopped) break;
    }
    fds.clear();
    fd_conn.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    fds.push_back({wake_read_fd_, POLLIN, 0});
    fd_conn.push_back(0);
    for (auto& [id, conn] : connections_) {
      short events = 0;
      if (!conn.read_closed && !conn.close_after_flush) events |= POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({conn.fd, events, 0});
      fd_conn.push_back(id);
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) {
      char drain[256];
      while (::read(wake_read_fd_, drain, sizeof drain) > 0) {
      }
      DrainCompletions();
    }
    if (fds[0].revents & POLLIN) AcceptNew();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const std::uint64_t id = fd_conn[i];
      auto it = connections_.find(id);
      if (it == connections_.end()) continue;  // closed by an earlier event
      Connection& conn = it->second;
      if (fds[i].revents & (POLLERR | POLLNVAL | POLLHUP)) {
        // POLLHUP is a full peer close (a half-close via SHUT_WR arrives
        // as POLLIN + recv()==0 instead): nobody will read our
        // responses, so drop the connection and cancel its work.
        CloseConnection(id, /*cancel_inflight=*/true);
        continue;
      }
      if (fds[i].revents & POLLIN) {
        if (!ReadFrom(conn)) {
          CloseConnection(id, /*cancel_inflight=*/true);
          continue;
        }
        if (!DispatchFrames(conn)) {
          CloseConnection(id, /*cancel_inflight=*/true);
          continue;
        }
      }
      if (!FlushWrites(conn)) {
        CloseConnection(id, /*cancel_inflight=*/true);
        continue;
      }
      const bool flushed = conn.out.empty();
      if (flushed && conn.close_after_flush) {
        CloseConnection(id, /*cancel_inflight=*/true);
      } else if (flushed && conn.read_closed && conn.inflight.empty()) {
        // Half-close complete: the client sent EOF, every response it was
        // owed has been delivered.
        CloseConnection(id, /*cancel_inflight=*/false);
      }
    }
  }
  // Best-effort final flush, then tear everything down.
  for (auto& [id, conn] : connections_) {
    (void)FlushWrites(conn);
    for (auto& [tag, token] : conn.inflight) token.Cancel();
    ::close(conn.fd);
  }
  connections_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(wake_read_fd_);
  wake_read_fd_ = -1;
  state_->cv.notify_all();
}

void NetServer::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error: nothing to accept
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    Connection conn(config_.max_frame_bytes);
    conn.fd = fd;
    conn.id = next_conn_id_++;
    connections_.emplace(conn.id, std::move(conn));
    std::lock_guard<std::mutex> lock(state_->mu);
    ++state_->connections_accepted;
  }
}

bool NetServer::ReadFrom(Connection& conn) {
  std::byte buffer[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof buffer, 0);
    if (n > 0) {
      conn.reader.Feed(std::span<const std::byte>(
          buffer, static_cast<std::size_t>(n)));
      continue;
    }
    if (n == 0) {
      // EOF: half-close. Responses still owed flow out before we close.
      conn.read_closed = true;
      return true;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    return false;  // connection error
  }
}

bool NetServer::DispatchFrames(Connection& conn) {
  FrameType type;
  std::span<const std::byte> body;
  for (;;) {
    const FrameReader::NextResult next = conn.reader.Next(&type, &body);
    if (next == FrameReader::NextResult::kNeedMore) return true;
    if (next == FrameReader::NextResult::kError) {
      // Framing lost: a garbage or oversize stream. Say why, then close.
      const bool oversize =
          conn.reader.error().find("exceeds") != std::string::npos;
      QueueError(conn,
                 oversize ? WireError::kFrameTooLarge
                          : WireError::kMalformedFrame,
                 conn.reader.error());
      conn.close_after_flush = true;
      return true;
    }

    if (!conn.negotiated) {
      if (type != FrameType::kHello) {
        QueueError(conn, WireError::kUnexpectedFrame,
                   "expected hello before any other frame");
        conn.close_after_flush = true;
        return true;
      }
      Result<HelloFrame> hello = DecodeHello(body);
      if (!hello.ok()) {
        QueueError(conn, WireError::kMalformedFrame,
                   hello.status().message());
        conn.close_after_flush = true;
        return true;
      }
      Result<ProtocolVersion> version = NegotiateVersion(hello.value());
      if (!version.ok()) {
        QueueError(conn, WireError::kVersionMismatch,
                   version.status().message());
        conn.close_after_flush = true;
        return true;
      }
      HelloAckFrame ack;
      ack.version = version.value();
      ack.server = "pam_serve/1";
      QueueWrite(conn, EncodeHelloAck(ack));
      conn.negotiated = true;
      continue;
    }

    switch (type) {
      case FrameType::kMine:
        HandleMine(conn, body);
        break;
      case FrameType::kCancel: {
        Result<CancelFrame> cancel = DecodeCancel(body);
        if (!cancel.ok()) {
          QueueError(conn, WireError::kMalformedFrame,
                     cancel.status().message());
          conn.close_after_flush = true;
          return true;
        }
        auto it = conn.inflight.find(cancel->tag);
        if (it == conn.inflight.end()) {
          QueueError(conn, WireError::kUnknownTag,
                     "cancel of unknown tag " +
                         std::to_string(cancel->tag));
        } else {
          it->second.Cancel();
        }
        break;
      }
      case FrameType::kStats: {
        Result<StatsFrame> stats = DecodeStats(body);
        if (!stats.ok()) {
          QueueError(conn, WireError::kMalformedFrame,
                     stats.status().message());
          conn.close_after_flush = true;
          return true;
        }
        StatsResponseFrame response;
        response.tag = stats->tag;
        response.stats = server_->Stats();
        QueueWrite(conn, EncodeStatsResponse(response));
        break;
      }
      case FrameType::kShutdown: {
        if (!config_.allow_shutdown) {
          QueueError(conn, WireError::kShutdownForbidden,
                     "server does not honor remote shutdown");
          break;
        }
        std::lock_guard<std::mutex> lock(state_->mu);
        state_->shutdown_requested = true;
        state_->cv.notify_all();
        break;
      }
      default:
        QueueError(conn, WireError::kUnexpectedFrame,
                   "server received a server-to-client frame");
        conn.close_after_flush = true;
        return true;
    }
  }
}

void NetServer::HandleMine(Connection& conn,
                           std::span<const std::byte> body) {
  Result<MineFrame> mine = DecodeMine(body);
  if (!mine.ok()) {
    QueueError(conn, WireError::kMalformedFrame, mine.status().message());
    conn.close_after_flush = true;
    return;
  }
  const std::uint64_t tag = mine->tag;
  if (conn.inflight.count(tag) > 0) {
    QueueError(conn, WireError::kDuplicateTag,
               "tag " + std::to_string(tag) + " already in flight");
    return;
  }
  MiningRequest request = std::move(mine->request);
  // The connection holds the token so kCancel frames and connection death
  // can fire it; the server arms deadlines on the same token.
  request.cancel = CancelToken::Create();
  conn.inflight.emplace(tag, request.cancel);

  std::shared_ptr<SharedState> state = state_;
  const std::uint64_t conn_id = conn.id;
  server_->SubmitWith(
      std::move(request),
      [state, conn_id, tag](ServeResponse response) {
        // Worker thread: encode the head here, off the event loop, then
        // hand it over through the self-pipe. A cached report's payload
        // was encoded when it was published and goes out as it is; any
        // other response's payload is encoded now.
        Completion completion;
        completion.conn_id = conn_id;
        completion.tag = tag;
        completion.frame.payload = ResponsePayload(response);
        completion.frame.bytes = EncodeResponseHead(
            tag, response, completion.frame.payload->size());
        state->Push(std::move(completion));
      });
}

void NetServer::QueueWrite(Connection& conn, std::vector<std::byte> frame) {
  conn.out.push_back(Segment{std::move(frame), nullptr, 0});
}

void NetServer::QueueError(Connection& conn, WireError error,
                           std::string message) {
  ErrorFrame frame;
  frame.error = error;
  frame.message = std::move(message);
  QueueWrite(conn, EncodeError(frame));
}

bool NetServer::FlushWrites(Connection& conn) {
  constexpr std::size_t kMaxIov = 64;
  while (!conn.out.empty()) {
    // Gather the unsent tail of the queue, up to kMaxIov pieces: each
    // segment's owned bytes, then its shared payload, in place.
    iovec iov[kMaxIov];
    std::size_t pieces = 0;
    for (const Segment& segment : conn.out) {
      if (pieces + 2 > kMaxIov) break;
      std::size_t skip = segment.sent;
      const auto add = [&](const std::vector<std::byte>& part) {
        if (skip >= part.size()) {
          skip -= part.size();
          return;
        }
        iov[pieces].iov_base = const_cast<std::byte*>(part.data() + skip);
        iov[pieces].iov_len = part.size() - skip;
        ++pieces;
        skip = 0;
      };
      add(segment.bytes);
      if (segment.payload != nullptr) add(*segment.payload);
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = pieces;
    const ssize_t n = ::sendmsg(conn.fd, &msg, MSG_NOSIGNAL);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    // Retire every segment the write finished; a short write leaves the
    // front one partly sent.
    auto written = static_cast<std::size_t>(n);
    while (written > 0) {
      Segment& front = conn.out.front();
      const std::size_t left = front.size() - front.sent;
      if (written < left) {
        front.sent += written;
        break;
      }
      written -= left;
      conn.out.pop_front();
    }
  }
  return true;
}

void NetServer::CloseConnection(std::uint64_t conn_id, bool cancel_inflight) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = it->second;
  if (cancel_inflight) {
    // The client is unreachable: stop burning pool time on its requests.
    // Completions already in flight route to a dead conn id and drop.
    for (auto& [tag, token] : conn.inflight) token.Cancel();
  }
  ::close(conn.fd);
  connections_.erase(it);
}

void NetServer::DrainCompletions() {
  std::deque<Completion> batch;
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    batch.swap(state_->completions);
  }
  for (Completion& completion : batch) {
    auto it = connections_.find(completion.conn_id);
    if (it == connections_.end()) continue;  // connection died meanwhile
    it->second.inflight.erase(completion.tag);
    it->second.out.push_back(std::move(completion.frame));
  }
}

// --- NetClient ------------------------------------------------------------

NetClient::~NetClient() { Close(); }

Status NetClient::Connect(const std::string& host, int port) {
  if (fd_ >= 0) return Status::Error("already connected");
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    Close();
    return Status::Error("bad address '" + host + "'");
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status status =
        Errno("connect " + host + ":" + std::to_string(port));
    Close();
    return status;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  const Status hello = SendFrame(EncodeHello(HelloFrame{}));
  if (!hello.ok()) {
    Close();
    return hello;
  }
  Result<ServerFrame> ack = Recv();
  if (!ack.ok()) {
    Close();
    return ack.status();
  }
  if (ack->type == FrameType::kError) {
    const Status status = Status::Error(
        std::string(WireErrorName(ack->error.error)) + ": " +
        ack->error.message);
    Close();
    return status;
  }
  if (ack->type != FrameType::kHelloAck) {
    Close();
    return Status::Error("expected hello_ack, got another frame");
  }
  return Status::Ok();
}

Status NetClient::SendFrame(const std::vector<std::byte>& frame) {
  if (fd_ < 0) return Status::Error("not connected");
  return WriteAll(fd_, frame.data(), frame.size());
}

Status NetClient::SendMine(std::uint64_t tag, const MiningRequest& request) {
  MineFrame mine;
  mine.tag = tag;
  mine.request = request;
  return SendFrame(EncodeMine(mine));
}

Status NetClient::SendCancel(std::uint64_t tag) {
  return SendFrame(EncodeCancel(CancelFrame{tag}));
}

Status NetClient::SendStats(std::uint64_t tag) {
  return SendFrame(EncodeStats(StatsFrame{tag}));
}

Status NetClient::SendShutdown() { return SendFrame(EncodeShutdown()); }

Status NetClient::SendRaw(std::span<const std::byte> bytes) {
  if (fd_ < 0) return Status::Error("not connected");
  return WriteAll(fd_, bytes.data(), bytes.size());
}

void NetClient::CloseWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void NetClient::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<NetClient::ServerFrame> NetClient::Recv() {
  if (fd_ < 0) return Status::Error("not connected");
  FrameType type;
  std::span<const std::byte> body;  // into reader_'s buffer: no Feed below
  for (;;) {
    const FrameReader::NextResult next = reader_.Next(&type, &body);
    if (next == FrameReader::NextResult::kError) {
      return Status::Error("stream corrupt: " + reader_.error());
    }
    if (next == FrameReader::NextResult::kFrame) break;
    std::byte buffer[64 * 1024];
    const ssize_t n = ::recv(fd_, buffer, sizeof buffer, 0);
    if (n == 0) return Status::Error("server closed the connection");
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    reader_.Feed(
        std::span<const std::byte>(buffer, static_cast<std::size_t>(n)));
  }

  ServerFrame frame;
  frame.type = type;
  switch (type) {
    case FrameType::kHelloAck: {
      Result<HelloAckFrame> ack = DecodeHelloAck(body);
      if (!ack.ok()) return ack.status();
      version_ = ack->version;
      return frame;
    }
    case FrameType::kResponse: {
      Result<ResponseFrame> response = DecodeResponse(body);
      if (!response.ok()) return response.status();
      frame.response = std::move(response.value());
      return frame;
    }
    case FrameType::kStatsResponse: {
      Result<StatsResponseFrame> stats = DecodeStatsResponse(body);
      if (!stats.ok()) return stats.status();
      frame.stats = std::move(stats.value());
      return frame;
    }
    case FrameType::kError: {
      Result<ErrorFrame> error = DecodeError(body);
      if (!error.ok()) return error.status();
      frame.error = std::move(error.value());
      return frame;
    }
    default:
      return Status::Error("unexpected server frame type");
  }
}

}  // namespace pam::serve
