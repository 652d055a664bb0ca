#include "pam/serve/protocol.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "pam/util/cancel.h"
#include "pam/util/flags.h"

namespace pam::serve {
namespace {

// --- little-endian primitive writer / reader over std::byte buffers.

// The wire is little-endian, and so is every host this builds for (the
// basket-file image makes the same assumption), so a primitive is one copy
// of its host bytes.
static_assert(std::endian::native == std::endian::little);

constexpr std::size_t kHeaderBytes = 5;  // u32 body length + u8 type

/// Builds one frame in one buffer: the header's 5 bytes are reserved up
/// front and written in place by Finish, and every primitive is one
/// bounded insert. `body_bytes` sizes the one reservation (the default
/// holds every frame but a response, which is sized exactly); a frame that
/// outgrows it still encodes correctly, it just reallocates. A writer
/// opened with `framed` false reserves no header and writes a bare run of
/// fields, which Take returns: a response payload.
class Writer {
 public:
  explicit Writer(std::size_t body_bytes = 256, bool framed = true) {
    const std::size_t header = framed ? kHeaderBytes : 0;
    out_.reserve(header + body_bytes);
    out_.resize(header);
  }

  void U8(std::uint8_t v) { Raw(&v, sizeof v); }
  void U16(std::uint16_t v) { Raw(&v, sizeof v); }
  void U32(std::uint32_t v) { Raw(&v, sizeof v); }
  void U64(std::uint64_t v) { Raw(&v, sizeof v); }
  void F64(double v) { Raw(&v, sizeof v); }
  void Str(const std::string& s) {
    U32(static_cast<std::uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  /// The words of `v` back to back, with no length.
  template <typename T>
  void Array(const std::vector<T>& v) {
    Raw(v.data(), v.size() * sizeof(T));
  }
  void Items(const std::vector<Item>& items) {
    U32(static_cast<std::uint32_t>(items.size()));
    Array(items);
  }

  /// The frame: the header written over the reserved bytes, no copy. The
  /// body is what was written plus `tail_bytes` that the caller sends
  /// after it from another buffer (a response's shared payload).
  std::vector<std::byte> Finish(FrameType type,
                                std::size_t tail_bytes = 0) && {
    const auto body = static_cast<std::uint32_t>(out_.size() - kHeaderBytes +
                                                 tail_bytes);
    std::memcpy(out_.data(), &body, sizeof body);
    out_[4] = static_cast<std::byte>(type);
    return std::move(out_);
  }
  /// The bare fields of an unframed writer.
  std::vector<std::byte> Take() && { return std::move(out_); }

 private:
  void Raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::byte*>(data);
    out_.insert(out_.end(), p, p + n);
  }

  std::vector<std::byte> out_;
};

/// Reads primitives off a body with one bounds check each. The first
/// failed check latches: every later read returns zeros, and Done() is
/// false.
class Reader {
 public:
  explicit Reader(std::span<const std::byte> data) : data_(data) {}

  std::uint8_t U8() { return Get<std::uint8_t>(); }
  std::uint16_t U16() { return Get<std::uint16_t>(); }
  std::uint32_t U32() { return Get<std::uint32_t>(); }
  std::uint64_t U64() { return Get<std::uint64_t>(); }
  double F64() { return Get<double>(); }
  std::string Str() {
    const std::uint32_t n = U32();
    if (!Fits(n, 1)) return {};
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  /// `n` words, read after Fits(n, sizeof(T)) has bounded them.
  template <typename T>
  std::vector<T> Array(std::size_t n) {
    std::vector<T> v(n);
    if (n > 0) std::memcpy(v.data(), data_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return v;
  }
  std::vector<Item> Items() {
    const std::uint32_t n = U32();
    if (!Fits(n, sizeof(Item))) return {};
    return Array<Item>(n);
  }

  /// Whether `count` records of at least `unit` bytes each fit in what is
  /// left of the body; a corrupt count fails here, before any allocation
  /// sized by it.
  bool Fits(std::uint64_t count, std::size_t unit) {
    if (!ok_ || count > (data_.size() - pos_) / unit) {
      ok_ = false;
      return false;
    }
    return true;
  }
  /// True iff nothing failed and every byte was consumed.
  bool Done() const { return ok_ && pos_ == data_.size(); }

 private:
  template <typename T>
  T Get() {
    T v{};
    if (Fits(1, sizeof v)) {
      std::memcpy(&v, data_.data() + pos_, sizeof v);
      pos_ += sizeof v;
    }
    return v;
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

Status Malformed(const char* what) {
  return Status::Error(std::string("malformed ") + what + " frame");
}

// A kResponse body is a per-request head followed by a payload that every
// response carrying the same report shares (protocol.h).

/// Tag, status, error string, the two times and the cached flag.
std::size_t HeadBodyBytes(const std::string& error) {
  return 30 + error.size();
}

void WriteResponseHead(Writer& w, std::uint64_t tag, ServeStatus status,
                       const std::string& error, double queue_seconds,
                       double service_seconds, bool from_result_cache) {
  w.U64(tag);
  w.U8(static_cast<std::uint8_t>(status));
  w.Str(error);
  w.F64(queue_seconds);
  w.F64(service_seconds);
  w.U8(from_result_cache ? 1 : 0);
}

/// The payload's exact size (minsup count, level and rule counts, then the
/// levels and rules), so its one reservation never grows.
std::size_t PayloadBytes(const FrequentItemsets& frequent,
                         const std::vector<Rule>& rules) {
  std::size_t bytes = 20;
  for (const ItemsetCollection& level : frequent.levels) {
    bytes += 12 + level.items().size() * sizeof(Item) +
             level.size() * sizeof(Count);
  }
  for (const Rule& rule : rules) {
    bytes += 32 + (rule.antecedent.size() + rule.consequent.size()) *
                      sizeof(Item);
  }
  return bytes;
}

void WriteResponsePayload(Writer& w, Count minsup_count,
                          const FrequentItemsets& frequent,
                          const std::vector<Rule>& rules) {
  w.U64(minsup_count);
  w.U32(static_cast<std::uint32_t>(frequent.levels.size()));
  for (const ItemsetCollection& level : frequent.levels) {
    w.U32(static_cast<std::uint32_t>(level.k()));
    w.U64(level.size());
    w.Array(level.items());
    w.Array(level.counts());
  }
  w.U64(rules.size());
  for (const Rule& rule : rules) {
    w.Items(rule.antecedent);
    w.Items(rule.consequent);
    w.U64(rule.joint_count);
    w.F64(rule.support);
    w.F64(rule.confidence);
  }
}

}  // namespace

bool IsClientFrame(FrameType type) {
  switch (type) {
    case FrameType::kMine:
    case FrameType::kCancel:
    case FrameType::kStats:
    case FrameType::kShutdown:
      return true;
    default:
      return false;
  }
}

const char* WireErrorName(WireError error) {
  switch (error) {
    case WireError::kVersionMismatch: return "version_mismatch";
    case WireError::kMalformedFrame: return "malformed_frame";
    case WireError::kFrameTooLarge: return "frame_too_large";
    case WireError::kUnexpectedFrame: return "unexpected_frame";
    case WireError::kDuplicateTag: return "duplicate_tag";
    case WireError::kUnknownTag: return "unknown_tag";
    case WireError::kShutdownForbidden: return "shutdown_forbidden";
  }
  return "unknown";
}

bool WireErrorClosesConnection(WireError error) {
  switch (error) {
    case WireError::kDuplicateTag:
    case WireError::kUnknownTag:
    case WireError::kShutdownForbidden:
      return false;  // the request is refused; the stream is still framed
    default:
      return true;
  }
}

// --- encoders -------------------------------------------------------------

std::vector<std::byte> EncodeHello(const HelloFrame& hello) {
  Writer w;
  w.U32(kProtocolMagic);
  w.U16(hello.min_version);
  w.U16(hello.max_version);
  return std::move(w).Finish(FrameType::kHello);
}

std::vector<std::byte> EncodeHelloAck(const HelloAckFrame& ack) {
  Writer w;
  w.U16(static_cast<std::uint16_t>(ack.version));
  w.Str(ack.server);
  return std::move(w).Finish(FrameType::kHelloAck);
}

std::vector<std::byte> EncodeMine(const MineFrame& mine) {
  Writer w;
  w.U64(mine.tag);
  w.Str(mine.request.tenant);
  w.Str(mine.request.dataset);
  w.U8(static_cast<std::uint8_t>(mine.request.algorithm));
  w.U32(static_cast<std::uint32_t>(mine.request.num_ranks));
  w.U64(mine.request.config.apriori.minsup_count);
  w.F64(mine.request.config.apriori.minsup_fraction);
  w.U32(static_cast<std::uint32_t>(mine.request.config.apriori.max_k));
  w.U32(static_cast<std::uint32_t>(
      mine.request.config.apriori.threads_per_rank));
  w.U8(mine.request.generate_rules ? 1 : 0);
  w.F64(mine.request.min_confidence);
  w.F64(mine.request.deadline_ms);
  return std::move(w).Finish(FrameType::kMine);
}

std::vector<std::byte> EncodeCancel(const CancelFrame& cancel) {
  Writer w;
  w.U64(cancel.tag);
  return std::move(w).Finish(FrameType::kCancel);
}

std::vector<std::byte> EncodeStats(const StatsFrame& stats) {
  Writer w;
  w.U64(stats.tag);
  return std::move(w).Finish(FrameType::kStats);
}

std::vector<std::byte> EncodeResponse(const ResponseFrame& response) {
  Writer w(HeadBodyBytes(response.error) +
           PayloadBytes(response.frequent, response.rules));
  WriteResponseHead(w, response.tag, response.status, response.error,
                    response.queue_seconds, response.service_seconds,
                    response.from_result_cache);
  WriteResponsePayload(w, response.minsup_count, response.frequent,
                       response.rules);
  return std::move(w).Finish(FrameType::kResponse);
}

std::vector<std::byte> EncodeResponsePayload(const MiningReport& report) {
  Writer w(PayloadBytes(report.frequent, report.rules), /*framed=*/false);
  WriteResponsePayload(w, report.minsup_count, report.frequent,
                       report.rules);
  return std::move(w).Take();
}

std::vector<std::byte> EncodeResponseHead(std::uint64_t tag,
                                          const ServeResponse& response,
                                          std::size_t payload_bytes) {
  Writer w(HeadBodyBytes(response.error));
  WriteResponseHead(w, tag, response.status, response.error,
                    response.queue_seconds, response.service_seconds,
                    response.from_result_cache);
  return std::move(w).Finish(FrameType::kResponse, payload_bytes);
}

PayloadHandle ResponsePayload(const ServeResponse& response) {
  if (response.payload != nullptr) return response.payload;
  static const MiningReport kNoReport;
  return std::make_shared<const std::vector<std::byte>>(EncodeResponsePayload(
      response.report != nullptr ? *response.report : kNoReport));
}

std::vector<std::byte> EncodeStatsResponse(const StatsResponseFrame& frame) {
  const ServerStats& s = frame.stats;
  Writer w;
  w.U64(frame.tag);
  w.U64(s.submitted);
  w.U64(s.admitted);
  w.U64(s.completed);
  w.U64(s.mining_faults);
  w.U64(s.cancelled);
  w.U64(s.deadline_exceeded);
  w.U64(s.expired_in_queue);
  w.U64(s.watchdog_fired);
  w.U64(s.rejected_queue_full);
  w.U64(s.rejected_tenant_in_flight);
  w.U64(s.rejected_tenant_budget);
  w.U64(s.rejected_unknown_dataset);
  w.U64(s.rejected_invalid);
  w.U64(s.rejected_shutdown);
  w.U64(s.cache_hits);
  w.U64(s.cache_misses);
  w.U64(s.cache_evictions);
  w.U64(s.result_hits);
  w.U64(s.result_misses);
  w.U64(s.result_evictions);
  w.U64(s.cache_resident_bytes);
  w.U64(s.result_resident_bytes);
  w.U64(s.queue_depth);
  w.U64(s.peak_queue_depth);
  w.U32(static_cast<std::uint32_t>(s.leased_ranks));
  w.F64(s.rank_seconds_charged);
  return std::move(w).Finish(FrameType::kStatsResponse);
}

std::vector<std::byte> EncodeError(const ErrorFrame& error) {
  Writer w;
  w.U16(static_cast<std::uint16_t>(error.error));
  w.Str(error.message);
  return std::move(w).Finish(FrameType::kError);
}

std::vector<std::byte> EncodeShutdown() {
  return Writer(0).Finish(FrameType::kShutdown);
}

// --- decoders -------------------------------------------------------------

Result<HelloFrame> DecodeHello(std::span<const std::byte> body) {
  Reader r(body);
  const std::uint32_t magic = r.U32();
  HelloFrame hello;
  hello.min_version = r.U16();
  hello.max_version = r.U16();
  if (!r.Done() || magic != kProtocolMagic) return Malformed("hello");
  return hello;
}

Result<HelloAckFrame> DecodeHelloAck(std::span<const std::byte> body) {
  Reader r(body);
  HelloAckFrame ack;
  ack.version = static_cast<ProtocolVersion>(r.U16());
  ack.server = r.Str();
  if (!r.Done()) return Malformed("hello_ack");
  return ack;
}

Result<MineFrame> DecodeMine(std::span<const std::byte> body) {
  Reader r(body);
  MineFrame mine;
  mine.tag = r.U64();
  mine.request.tenant = r.Str();
  mine.request.dataset = r.Str();
  const std::uint8_t algorithm = r.U8();
  mine.request.num_ranks = static_cast<int>(r.U32());
  mine.request.config.apriori.minsup_count = r.U64();
  mine.request.config.apriori.minsup_fraction = r.F64();
  mine.request.config.apriori.max_k = static_cast<int>(r.U32());
  mine.request.config.apriori.threads_per_rank = static_cast<int>(r.U32());
  mine.request.generate_rules = r.U8() != 0;
  mine.request.min_confidence = r.F64();
  mine.request.deadline_ms = r.F64();
  if (!r.Done() ||
      algorithm > static_cast<std::uint8_t>(MiningAlgorithm::kHPA))
    return Malformed("mine");
  mine.request.algorithm = static_cast<MiningAlgorithm>(algorithm);
  return mine;
}

Result<CancelFrame> DecodeCancel(std::span<const std::byte> body) {
  Reader r(body);
  CancelFrame cancel;
  cancel.tag = r.U64();
  if (!r.Done()) return Malformed("cancel");
  return cancel;
}

Result<StatsFrame> DecodeStats(std::span<const std::byte> body) {
  Reader r(body);
  StatsFrame stats;
  stats.tag = r.U64();
  if (!r.Done()) return Malformed("stats");
  return stats;
}

Result<ResponseFrame> DecodeResponse(std::span<const std::byte> body) {
  Reader r(body);
  ResponseFrame response;
  response.tag = r.U64();
  const std::uint8_t status = r.U8();
  response.error = r.Str();
  response.queue_seconds = r.F64();
  response.service_seconds = r.F64();
  response.from_result_cache = r.U8() != 0;
  response.minsup_count = r.U64();
  if (status > static_cast<std::uint8_t>(ServeStatus::kCancelled))
    return Malformed("response");
  response.status = static_cast<ServeStatus>(status);
  // Every count is bounded by the bytes left before anything is reserved
  // for it: a level header is 12 bytes, an itemset k*4 + 8, a rule 32 or
  // more.
  const std::uint32_t num_levels = r.U32();
  if (!r.Fits(num_levels, 12)) return Malformed("response");
  response.frequent.levels.reserve(num_levels);
  for (std::uint32_t l = 0; l < num_levels; ++l) {
    const std::uint32_t k = r.U32();
    const std::uint64_t n = r.U64();
    if (k == 0 || k > 4096 || !r.Fits(n, k * sizeof(Item) + sizeof(Count)))
      return Malformed("response");
    std::vector<Item> items = r.Array<Item>(n * k);
    for (std::size_t i = 0; i < items.size(); i += k) {
      for (std::size_t j = i + 1; j < i + k; ++j) {
        if (items[j - 1] >= items[j]) return Malformed("response");
      }
    }
    response.frequent.levels.emplace_back(static_cast<int>(k),
                                          std::move(items),
                                          r.Array<Count>(n));
  }
  const std::uint64_t num_rules = r.U64();
  if (!r.Fits(num_rules, 32)) return Malformed("response");
  response.rules.resize(num_rules);
  for (Rule& rule : response.rules) {
    rule.antecedent = r.Items();
    rule.consequent = r.Items();
    rule.joint_count = r.U64();
    rule.support = r.F64();
    rule.confidence = r.F64();
  }
  if (!r.Done()) return Malformed("response");
  return response;
}

Result<StatsResponseFrame> DecodeStatsResponse(
    std::span<const std::byte> body) {
  Reader r(body);
  StatsResponseFrame frame;
  frame.tag = r.U64();
  ServerStats& s = frame.stats;
  s.submitted = r.U64();
  s.admitted = r.U64();
  s.completed = r.U64();
  s.mining_faults = r.U64();
  s.cancelled = r.U64();
  s.deadline_exceeded = r.U64();
  s.expired_in_queue = r.U64();
  s.watchdog_fired = r.U64();
  s.rejected_queue_full = r.U64();
  s.rejected_tenant_in_flight = r.U64();
  s.rejected_tenant_budget = r.U64();
  s.rejected_unknown_dataset = r.U64();
  s.rejected_invalid = r.U64();
  s.rejected_shutdown = r.U64();
  s.cache_hits = r.U64();
  s.cache_misses = r.U64();
  s.cache_evictions = r.U64();
  s.result_hits = r.U64();
  s.result_misses = r.U64();
  s.result_evictions = r.U64();
  s.cache_resident_bytes = static_cast<std::size_t>(r.U64());
  s.result_resident_bytes = static_cast<std::size_t>(r.U64());
  s.queue_depth = static_cast<std::size_t>(r.U64());
  s.peak_queue_depth = static_cast<std::size_t>(r.U64());
  s.leased_ranks = static_cast<int>(r.U32());
  s.rank_seconds_charged = r.F64();
  if (!r.Done()) return Malformed("stats_response");
  return frame;
}

Result<ErrorFrame> DecodeError(std::span<const std::byte> body) {
  Reader r(body);
  const std::uint16_t code = r.U16();
  ErrorFrame error;
  error.message = r.Str();
  if (!r.Done() || code < 1 ||
      code > static_cast<std::uint16_t>(WireError::kShutdownForbidden))
    return Malformed("error");
  error.error = static_cast<WireError>(code);
  return error;
}

Result<ProtocolVersion> NegotiateVersion(const HelloFrame& hello) {
  if (hello.min_version > hello.max_version)
    return Status::Error("malformed hello: min_version > max_version");
  const std::uint16_t lo = static_cast<std::uint16_t>(kMinProtocolVersion);
  const std::uint16_t hi = static_cast<std::uint16_t>(kMaxProtocolVersion);
  if (hello.max_version < lo || hello.min_version > hi) {
    std::ostringstream msg;
    msg << "no common protocol version: client speaks [" << hello.min_version
        << ", " << hello.max_version << "], server speaks [" << lo << ", "
        << hi << "]";
    return Status::Error(msg.str());
  }
  return static_cast<ProtocolVersion>(std::min(hello.max_version, hi));
}

// --- FrameReader ----------------------------------------------------------

void FrameReader::Feed(std::span<const std::byte> bytes) {
  // Compact before growing once the consumed prefix dominates.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

FrameReader::NextResult FrameReader::Next(FrameType* type,
                                          std::span<const std::byte>* body) {
  if (failed_) return NextResult::kError;
  const std::size_t available = buffer_.size() - consumed_;
  if (available < 5) return NextResult::kNeedMore;
  const std::byte* p = buffer_.data() + consumed_;
  std::uint32_t length = 0;
  for (int i = 3; i >= 0; --i)
    length = (length << 8) | static_cast<std::uint32_t>(p[i]);
  if (length > max_frame_bytes_) {
    failed_ = true;
    error_ = "frame length " + std::to_string(length) + " exceeds limit " +
             std::to_string(max_frame_bytes_);
    return NextResult::kError;
  }
  const std::uint8_t raw_type = static_cast<std::uint8_t>(p[4]);
  if (raw_type < static_cast<std::uint8_t>(FrameType::kHello) ||
      raw_type > static_cast<std::uint8_t>(FrameType::kShutdown)) {
    failed_ = true;
    error_ = "unknown frame type " + std::to_string(raw_type);
    return NextResult::kError;
  }
  if (available < 5u + length) return NextResult::kNeedMore;
  *type = static_cast<FrameType>(raw_type);
  *body = std::span<const std::byte>(p + 5, length);
  consumed_ += 5u + length;
  return NextResult::kFrame;
}

// --- line protocol --------------------------------------------------------

namespace {

bool ParseTokens(const std::string& line, std::string* verb,
                 std::vector<std::pair<std::string, std::string>>* kv) {
  std::string body = line;
  const std::size_t hash = body.find('#');
  if (hash != std::string::npos) body.resize(hash);
  std::istringstream in(body);
  if (!(*verb = "", in >> *verb)) return false;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      kv->emplace_back(token, "true");
    } else {
      kv->emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
  }
  return true;
}

// Reads the value of `key` strictly: the whole token must be a base-10
// integer (FlagParser::ParseInt) in [lo, hi], or a finite number
// (FlagParser::ParseDouble) in [lo, hi]. A malformed or out-of-range value
// is an error naming the key, never a silent 0.
Status ParseIntField(const std::string& key, const std::string& value,
                     std::int64_t lo, std::int64_t hi, int* out) {
  std::int64_t parsed = 0;
  if (!FlagParser::ParseInt(value, &parsed) || parsed < lo || parsed > hi) {
    return Status::Error(key + " must be an integer from " +
                         std::to_string(lo) + " to " + std::to_string(hi) +
                         ", got '" + value + "'");
  }
  *out = static_cast<int>(parsed);
  return Status::Ok();
}

Status ParseNumberField(const std::string& key, const std::string& value,
                        double lo, double hi, double* out) {
  double parsed = 0.0;
  if (!FlagParser::ParseDouble(value, &parsed) ||
      !(parsed >= lo && parsed <= hi)) {
    char range[96];
    std::snprintf(range, sizeof range, " must be a number from %g to %g",
                  lo, hi);
    return Status::Error(key + range + ", got '" + value + "'");
  }
  *out = parsed;
  return Status::Ok();
}

}  // namespace

Result<Command> ParseCommandLine(const std::string& line) {
  Command command;
  std::string verb;
  std::vector<std::pair<std::string, std::string>> kv;
  if (!ParseTokens(line, &verb, &kv)) return command;  // blank: kNone

  if (verb == "cancel") {
    command.verb = Command::Verb::kCancel;
    if (kv.empty()) return Status::Error("cancel needs a request id");
    command.id = kv.front().first;
    return command;
  }
  if (verb == "stats") {
    command.verb = Command::Verb::kStats;
    return command;
  }
  if (verb == "shutdown") {
    command.verb = Command::Verb::kShutdown;
    return command;
  }
  if (verb != "mine")
    return Status::Error("unknown verb '" + verb + "'");

  command.verb = Command::Verb::kMine;
  MiningRequest& request = command.request;
  request.tenant = "anonymous";
  request.num_ranks = 4;
  request.config.apriori.minsup_fraction = 1.0 / 100.0;
  request.min_confidence = 0.5;
  constexpr std::int64_t kIntMax = std::numeric_limits<int>::max();
  for (const auto& [key, value] : kv) {
    Status field;
    double percent = 0.0;
    if (key == "id") {
      command.id = value;
    } else if (key == "tenant") {
      request.tenant = value;
    } else if (key == "dataset") {
      request.dataset = value;
    } else if (key == "algorithm") {
      if (!ParseMiningAlgorithm(value, &request.algorithm))
        return Status::Error("unknown algorithm '" + value + "'");
    } else if (key == "ranks") {
      field = ParseIntField(key, value, 1, kIntMax, &request.num_ranks);
    } else if (key == "minsup") {
      field = ParseNumberField(key, value, 0.0, 100.0, &percent);
      request.config.apriori.minsup_fraction = percent / 100.0;
    } else if (key == "threads") {
      field = ParseIntField(key, value, 1, kIntMax,
                            &request.config.apriori.threads_per_rank);
    } else if (key == "max-k") {
      field = ParseIntField(key, value, 0, kIntMax,
                            &request.config.apriori.max_k);
    } else if (key == "rules") {
      request.generate_rules = value == "true";
    } else if (key == "minconf") {
      field = ParseNumberField(key, value, 0.0, 100.0, &percent);
      request.min_confidence = percent / 100.0;
    } else if (key == "deadline-ms") {
      field = ParseNumberField(key, value, 0.0, CancelToken::kMaxDeadlineMs,
                               &request.deadline_ms);
    } else {
      return Status::Error("unknown key '" + key + "'");
    }
    if (!field.ok()) return field;
  }
  return command;
}

std::string FormatResponseLine(const std::string& id,
                               const std::string& tenant,
                               const std::string& dataset,
                               ServeStatus status, const std::string& error,
                               std::size_t itemsets, std::size_t rules,
                               double queue_ms, double service_ms,
                               bool from_result_cache) {
  char buffer[512];
  if (status == ServeStatus::kOk) {
    std::snprintf(buffer, sizeof buffer,
                  "response id=%s tenant=%s dataset=%s status=ok "
                  "itemsets=%zu rules=%zu cached=%d queue_ms=%.2f "
                  "service_ms=%.2f",
                  id.c_str(), tenant.c_str(), dataset.c_str(), itemsets,
                  rules, from_result_cache ? 1 : 0, queue_ms, service_ms);
  } else {
    std::snprintf(buffer, sizeof buffer,
                  "response id=%s tenant=%s dataset=%s status=%s "
                  "error=\"%s\"",
                  id.c_str(), tenant.c_str(), dataset.c_str(),
                  ServeStatusName(status), error.c_str());
  }
  return buffer;
}

std::string FormatStatsSummary(const ServerStats& stats) {
  char buffer[1024];
  std::string out;
  std::snprintf(
      buffer, sizeof buffer,
      "served %llu/%llu requests (%llu ok, %llu faulted, %llu cancelled, "
      "%llu deadline_exceeded [%llu expired_in_queue], %llu rejected: "
      "%llu queue_full, %llu quota, %llu budget, %llu unknown_dataset, "
      "%llu invalid, %llu shutdown)\n",
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.mining_faults),
      static_cast<unsigned long long>(stats.cancelled),
      static_cast<unsigned long long>(stats.deadline_exceeded),
      static_cast<unsigned long long>(stats.expired_in_queue),
      static_cast<unsigned long long>(stats.TotalRejected()),
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.rejected_tenant_in_flight),
      static_cast<unsigned long long>(stats.rejected_tenant_budget),
      static_cast<unsigned long long>(stats.rejected_unknown_dataset),
      static_cast<unsigned long long>(stats.rejected_invalid),
      static_cast<unsigned long long>(stats.rejected_shutdown));
  out += buffer;
  std::snprintf(
      buffer, sizeof buffer,
      "datasets: %llu hits, %llu misses, %llu evictions, %zu resident "
      "bytes; results: %llu hits, %llu misses, %llu evictions, %zu "
      "resident bytes; peak queue %zu; %llu watchdog fires; %.3f "
      "rank-seconds charged\n",
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(stats.cache_misses),
      static_cast<unsigned long long>(stats.cache_evictions),
      stats.cache_resident_bytes,
      static_cast<unsigned long long>(stats.result_hits),
      static_cast<unsigned long long>(stats.result_misses),
      static_cast<unsigned long long>(stats.result_evictions),
      stats.result_resident_bytes, stats.peak_queue_depth,
      static_cast<unsigned long long>(stats.watchdog_fired),
      stats.rank_seconds_charged);
  out += buffer;
  return out;
}

}  // namespace pam::serve
