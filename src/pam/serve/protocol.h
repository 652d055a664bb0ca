#ifndef PAM_SERVE_PROTOCOL_H_
#define PAM_SERVE_PROTOCOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "pam/api/session.h"
#include "pam/serve/server.h"
#include "pam/util/status.h"

namespace pam::serve {

/// The pam_serve wire protocol (DESIGN.md §15): a versioned,
/// length-prefixed binary framing shared by every front-end of the mining
/// server — the TCP NetServer, the pam_client CLI, and the in-process
/// pam_serve tool (whose text lines parse through the same Command type
/// and print through the same formatter). One codec, three transports.
///
/// Every frame is
///
///   [u32 body_bytes (LE)] [u8 FrameType] [body]
///
/// A kResponse body is written in two parts, a per-request head (tag,
/// status, error, queue and service seconds, cached flag) and a payload
/// (minsup count, levels, rules) that depends only on the report. The
/// result cache encodes a report's payload once and every hit of it sends
/// those same bytes after its own head; the frame on the wire is head ⧺
/// payload, the same bytes EncodeResponse writes for the same fields, so
/// the split is invisible to a client and the protocol version does not
/// change.
///
/// A connection opens with version negotiation: the client's kHello
/// carries the magic and its supported [min, max] version range, the
/// server answers kHelloAck with the highest version both sides speak, or
/// a typed kError{kVersionMismatch} frame and a close. All integers are
/// little-endian; strings are u32 length + bytes (no terminator).
enum class ProtocolVersion : std::uint16_t {
  kV1 = 1,
};

/// The version range this build speaks. Negotiation picks
/// min(client max, server max) if the ranges intersect.
inline constexpr ProtocolVersion kMinProtocolVersion = ProtocolVersion::kV1;
inline constexpr ProtocolVersion kMaxProtocolVersion = ProtocolVersion::kV1;

/// First field of the kHello body; anything else is not this protocol
/// (the fast garbage-connection reject).
inline constexpr std::uint32_t kProtocolMagic = 0x50414D57;  // "PAMW"

enum class FrameType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kMine = 3,          // submit one MiningRequest, tagged by the client
  kCancel = 4,        // fire the cancel token of an earlier kMine tag
  kStats = 5,         // poll the server's counter snapshot
  kResponse = 6,      // one ServeResponse, echoing its kMine tag
  kStatsResponse = 7, // counter snapshot, echoing its kStats tag
  kError = 8,         // typed protocol-level error
  kShutdown = 9,      // ask the daemon to drain and exit (if allowed)
};

/// True for the frame types a client may send after negotiation.
bool IsClientFrame(FrameType type);

/// Typed protocol-level errors (kError frames). Frame- and
/// connection-level failures only; mining failures travel as ServeStatus
/// inside kResponse frames.
enum class WireError : std::uint16_t {
  kVersionMismatch = 1,  // no common protocol version; connection closes
  kMalformedFrame = 2,   // body did not decode; connection closes
  kFrameTooLarge = 3,    // length prefix over the limit; connection closes
  kUnexpectedFrame = 4,  // e.g. kMine before kHello; connection closes
  kDuplicateTag = 5,     // kMine tag already in flight on this connection
  kUnknownTag = 6,       // kCancel names no in-flight tag
  kShutdownForbidden = 7,  // kShutdown without --allow-shutdown
};

/// Stable lowercase name ("version_mismatch", ...).
const char* WireErrorName(WireError error);

/// Does this error end the connection (after the error frame flushes)?
bool WireErrorClosesConnection(WireError error);

// ---------------------------------------------------------------------------
// Frame payload types

struct HelloFrame {
  std::uint16_t min_version =
      static_cast<std::uint16_t>(kMinProtocolVersion);
  std::uint16_t max_version =
      static_cast<std::uint16_t>(kMaxProtocolVersion);
};

struct HelloAckFrame {
  ProtocolVersion version = kMaxProtocolVersion;
  /// Server software banner, e.g. "pam_serve/1".
  std::string server;
};

/// One submitted request. `tag` is a client-chosen id echoed on the
/// response; it must be unique among the connection's in-flight requests.
/// Only the wire-expressible subset of MiningRequest travels (algorithm,
/// ranks, minsup, rules, threads, max_k, deadline); fault injection and
/// caller-held tokens are in-process concepts.
struct MineFrame {
  std::uint64_t tag = 0;
  MiningRequest request;
};

struct CancelFrame {
  std::uint64_t tag = 0;
};

struct StatsFrame {
  std::uint64_t tag = 0;
};

/// One served response. Carries the full MiningReport payload (frequent
/// itemsets and rules) so a remote client can verify byte-identity with a
/// local run; metrics and timelines stay server-side.
struct ResponseFrame {
  std::uint64_t tag = 0;
  ServeStatus status = ServeStatus::kOk;
  std::string error;
  double queue_seconds = 0.0;
  double service_seconds = 0.0;
  bool from_result_cache = false;
  FrequentItemsets frequent;
  std::vector<Rule> rules;
  Count minsup_count = 0;
};

struct StatsResponseFrame {
  std::uint64_t tag = 0;
  ServerStats stats;
};

struct ErrorFrame {
  WireError error = WireError::kMalformedFrame;
  std::string message;
};

// ---------------------------------------------------------------------------
// Encode / decode. Encoders return a complete frame (header + body);
// decoders take the body only (the FrameReader strips the header) and
// fail with a Status on truncation, trailing bytes, or invalid values —
// never by reading out of bounds.

std::vector<std::byte> EncodeHello(const HelloFrame& hello);
std::vector<std::byte> EncodeHelloAck(const HelloAckFrame& ack);
std::vector<std::byte> EncodeMine(const MineFrame& mine);
std::vector<std::byte> EncodeCancel(const CancelFrame& cancel);
std::vector<std::byte> EncodeStats(const StatsFrame& stats);
std::vector<std::byte> EncodeResponse(const ResponseFrame& response);

/// The two parts of a kResponse frame (see the frame comment above). The
/// payload is unframed: minsup count, levels and rules.
std::vector<std::byte> EncodeResponsePayload(const MiningReport& report);
/// The frame header and the head fields of `response`, for a frame whose
/// body ends with `payload_bytes` of payload sent from another buffer.
std::vector<std::byte> EncodeResponseHead(std::uint64_t tag,
                                          const ServeResponse& response,
                                          std::size_t payload_bytes);
/// The payload `response` is sent with: the result cache's shared one when
/// it carries it, else its report's, encoded now. A null report encodes as
/// no itemsets and no rules.
PayloadHandle ResponsePayload(const ServeResponse& response);
std::vector<std::byte> EncodeStatsResponse(const StatsResponseFrame& stats);
std::vector<std::byte> EncodeError(const ErrorFrame& error);
std::vector<std::byte> EncodeShutdown();

Result<HelloFrame> DecodeHello(std::span<const std::byte> body);
Result<HelloAckFrame> DecodeHelloAck(std::span<const std::byte> body);
Result<MineFrame> DecodeMine(std::span<const std::byte> body);
Result<CancelFrame> DecodeCancel(std::span<const std::byte> body);
Result<StatsFrame> DecodeStats(std::span<const std::byte> body);
Result<ResponseFrame> DecodeResponse(std::span<const std::byte> body);
Result<StatsResponseFrame> DecodeStatsResponse(
    std::span<const std::byte> body);
Result<ErrorFrame> DecodeError(std::span<const std::byte> body);

/// Negotiates the protocol version for a client hello against this
/// build's [kMinProtocolVersion, kMaxProtocolVersion] range. Returns an
/// error Status when the ranges do not intersect (or the hello is
/// malformed, e.g. min > max).
Result<ProtocolVersion> NegotiateVersion(const HelloFrame& hello);

// ---------------------------------------------------------------------------
// Incremental frame reassembly for stream transports.

/// Splits a byte stream back into frames. Feed() appends raw bytes as
/// they arrive; Next() yields complete frames until the buffer runs dry.
/// A frame's body is a view of the reader's own buffer, valid until the
/// next Feed(), so a caller decodes it in place without copying it out.
/// A length prefix over `max_frame_bytes` or an unknown frame type is a
/// hard kError state: stream framing is lost and the connection must
/// close (there is no way to resynchronize a length-prefixed stream).
class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  static constexpr std::size_t kDefaultMaxFrameBytes = 256u << 20;

  void Feed(std::span<const std::byte> bytes);

  enum class NextResult {
    kFrame,     // *type / *body filled with one complete frame
    kNeedMore,  // the buffer holds no complete frame yet
    kError,     // framing lost (oversize length or unknown type)
  };
  NextResult Next(FrameType* type, std::span<const std::byte>* body);

  const std::string& error() const { return error_; }
  /// Bytes buffered but not yet consumed as frames.
  std::size_t buffered_bytes() const { return buffer_.size() - consumed_; }

 private:
  const std::size_t max_frame_bytes_;
  std::vector<std::byte> buffer_;
  std::size_t consumed_ = 0;
  bool failed_ = false;
  std::string error_;
};

// ---------------------------------------------------------------------------
// The text line protocol (the pam_serve scripting surface, now shared
// with pam_client). One command per line; '#' starts a comment:
//
//   mine id=TAG tenant=NAME dataset=NAME [algorithm=ALG] [ranks=P]
//        [minsup=PCT] [minconf=PCT] [rules] [threads=T] [max-k=K]
//        [deadline-ms=D]
//   cancel TAG
//   stats
//   shutdown

struct Command {
  enum class Verb {
    kNone,  // blank or comment-only line
    kMine,
    kCancel,
    kStats,
    kShutdown,
  };
  Verb verb = Verb::kNone;
  /// kMine: the request id (empty = caller assigns); kCancel: the target.
  std::string id;
  MiningRequest request;  // kMine only
};

/// Parses one line of the text protocol. Key order is free-form; bare
/// keys (e.g. `rules`) are booleans. Fails with a typed Status on an
/// unknown verb, an unknown algorithm, an unknown key, or a number that is
/// not wholly one base-10 token within its range (ranks and threads at
/// least 1, max-k at least 0, minsup and minconf percents from 0 to 100,
/// deadline-ms finite from 0 to CancelToken::kMaxDeadlineMs); the message
/// names the key. The callers print it as a warning and skip the line.
Result<Command> ParseCommandLine(const std::string& line);

/// Renders one response as the tools' standard line, e.g.
///   response id=r1 tenant=acme dataset=retail status=ok itemsets=120
///   rules=4 cached=0 queue_ms=0.21 service_ms=14.80
/// (no trailing newline). Error statuses render status= and error= only.
std::string FormatResponseLine(const std::string& id,
                               const std::string& tenant,
                               const std::string& dataset,
                               ServeStatus status, const std::string& error,
                               std::size_t itemsets, std::size_t rules,
                               double queue_ms, double service_ms,
                               bool from_result_cache);

/// Renders the server counter summary the tools print at exit (two
/// lines, trailing newline included).
std::string FormatStatsSummary(const ServerStats& stats);

}  // namespace pam::serve

#endif  // PAM_SERVE_PROTOCOL_H_
