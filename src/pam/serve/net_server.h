#ifndef PAM_SERVE_NET_SERVER_H_
#define PAM_SERVE_NET_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "pam/serve/protocol.h"
#include "pam/serve/server.h"

namespace pam::serve {

/// Shape of the TCP front-end.
struct NetServerConfig {
  /// Address to bind (IPv4 dotted quad). Loopback by default: mining
  /// service exposure to a real network is an explicit decision.
  std::string bind_address = "127.0.0.1";
  /// Port to bind; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  /// Honor kShutdown frames (the CI smoke uses this for a deterministic
  /// remote stop). Off by default: a stray client must not stop the
  /// daemon, so kShutdown answers kError{kShutdownForbidden}.
  bool allow_shutdown = false;
  /// Per-connection incoming frame size limit (oversize = typed error +
  /// close; the stream cannot be resynchronized).
  std::size_t max_frame_bytes = FrameReader::kDefaultMaxFrameBytes;
};

/// The poll-based TCP front-end of the mining service (DESIGN.md §15):
/// one event-loop thread multiplexing a listener and every client
/// connection, speaking the versioned wire protocol of
/// pam/serve/protocol.h over a MiningServer it does not own.
///
/// Connection state machine: accept -> kHello/kHelloAck version
/// negotiation -> request frames. Each kMine is handed to
/// MiningServer::SubmitWith with a connection-held CancelToken; the
/// worker's completion callback encodes the kResponse head off the loop
/// thread and queues it through a self-pipe, so the loop never blocks on
/// mining and responses may interleave out of submission order (tags
/// correlate them). A cached report's payload was encoded once, when the
/// report was published, and every response carrying it sends that one
/// buffer: a connection's write queue is a deque of segments (owned bytes
/// plus an optional shared payload) flushed with sendmsg, so no payload is
/// copied into a connection buffer. kCancel fires the token of an
/// in-flight tag; kStats answers synchronously. A client that half-closes
/// (EOF after its last request) still receives every pending response
/// before the server closes; a connection that dies mid-flight has its
/// in-flight tokens cancelled so the pool is not wasted on an unreachable
/// client.
///
/// Protocol errors are typed kError frames: version mismatch, malformed
/// or oversize frames, and frames before hello close the connection
/// (framing is lost); duplicate/unknown tags and forbidden shutdown are
/// per-request refusals on a still-healthy stream.
class NetServer {
 public:
  /// `server` must outlive this object. Call Start() to begin serving.
  NetServer(MiningServer* server, const NetServerConfig& config);
  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Binds, listens, and starts the event loop. Fails on socket errors
  /// (port in use, bad address).
  Status Start();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }

  /// Blocks until a client's kShutdown frame is honored or Stop() is
  /// called; returns true for the former. The daemon's main thread parks
  /// here, then runs MiningServer::Shutdown() and Stop().
  bool WaitForShutdownRequest();

  /// Stops accepting, flushes what can be flushed without blocking,
  /// closes every connection (cancelling in-flight tokens), and joins
  /// the loop. Idempotent; the destructor calls it.
  void Stop();

  /// Connections accepted over the server's lifetime.
  std::uint64_t ConnectionsAccepted() const;

 private:
  struct SharedState;
  struct Connection;

  void LoopMain();
  void AcceptNew();
  /// Reads everything available; returns false when the connection died.
  bool ReadFrom(Connection& conn);
  /// Decodes and dispatches every complete frame in the read buffer;
  /// returns false when the connection must close immediately.
  bool DispatchFrames(Connection& conn);
  void HandleMine(Connection& conn, std::span<const std::byte> body);
  /// Appends a frame to the connection's write queue.
  void QueueWrite(Connection& conn, std::vector<std::byte> frame);
  void QueueError(Connection& conn, WireError error, std::string message);
  /// Writes queued segments until the socket would block; returns false
  /// when the connection died.
  bool FlushWrites(Connection& conn);
  void CloseConnection(std::uint64_t conn_id, bool cancel_inflight);
  void DrainCompletions();

  MiningServer* const server_;
  const NetServerConfig config_;
  std::shared_ptr<SharedState> state_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int port_ = 0;
  std::uint64_t next_conn_id_ = 1;
  std::map<std::uint64_t, Connection> connections_;
  std::thread loop_;
};

/// A minimal blocking client for the wire protocol — the transport half
/// of the pam_client CLI and the loopback test harness. Not thread-safe;
/// one request/response conversation per instance.
class NetClient {
 public:
  NetClient() = default;
  ~NetClient();
  NetClient(const NetClient&) = delete;
  NetClient& operator=(const NetClient&) = delete;

  /// Connects and performs the hello/ack version negotiation. On a
  /// version-mismatch kError the connection is closed and the error
  /// status carries the server's message.
  Status Connect(const std::string& host, int port);

  /// The negotiated protocol version (valid after Connect).
  ProtocolVersion version() const { return version_; }

  Status SendMine(std::uint64_t tag, const MiningRequest& request);
  Status SendCancel(std::uint64_t tag);
  Status SendStats(std::uint64_t tag);
  Status SendShutdown();
  /// Sends raw bytes as-is (tests use this to poke garbage at a server).
  Status SendRaw(std::span<const std::byte> bytes);
  /// Half-close: no more requests, but responses still flow back.
  void CloseWrite();
  void Close();

  /// One server->client frame, decoded per its type.
  struct ServerFrame {
    FrameType type = FrameType::kError;
    ResponseFrame response;            // kResponse
    StatsResponseFrame stats;          // kStatsResponse
    ErrorFrame error;                  // kError
  };

  /// Blocks for the next server frame. Fails on EOF, a dead socket, or a
  /// malformed stream.
  Result<ServerFrame> Recv();

 private:
  Status SendFrame(const std::vector<std::byte>& frame);

  int fd_ = -1;
  ProtocolVersion version_ = kMaxProtocolVersion;
  FrameReader reader_;
};

}  // namespace pam::serve

#endif  // PAM_SERVE_NET_SERVER_H_
