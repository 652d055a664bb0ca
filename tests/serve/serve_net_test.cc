// Wire protocol, network front-end, weighted fair queueing, and result
// cache suite (ctest label `serve`; runs under ASan and TSan in CI).
//
// Contracts under test (DESIGN.md §15):
//   - every frame type round-trips through encode/decode byte-exactly,
//     and the FrameReader reassembles arbitrarily fragmented streams;
//   - MiningRequest::CanonicalDigest is invariant to formulation and
//     spelling (algorithm/ranks/threads; defaults vs explicit defaults)
//     and sensitive to every result-affecting field;
//   - a loopback round trip through NetServer returns responses
//     byte-identical to solo MiningSession runs, for all six algorithms;
//   - protocol violations (wrong version, garbage bytes, frames before
//     hello) answer a typed kError and close; per-request refusals
//     (unknown tag, forbidden shutdown) leave the stream healthy;
//   - a half-closed client still receives every pending response;
//   - start-time fair queueing gives a weight-3 tenant ~3x the service
//     share of a weight-1 peer under saturation, with a starvation bound;
//   - a result-cache hit returns a byte-identical report without leasing
//     a rank, and the counter invariants extend to the new counters;
//   - a kResponse frame is its head then its payload, byte for byte the
//     frames pinned before the split; a cached report's payload is
//     encoded once and shared by every hit, and the result budget counts
//     it; frames queued behind a shared payload under short writes arrive
//     whole and in order.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "pam/serve/net_server.h"
#include "pam/serve/protocol.h"
#include "pam/serve/server.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using serve::Command;
using serve::ErrorFrame;
using serve::FrameReader;
using serve::FrameType;
using serve::HelloAckFrame;
using serve::HelloFrame;
using serve::MineFrame;
using serve::MiningServer;
using serve::NetClient;
using serve::NetServer;
using serve::NetServerConfig;
using serve::ResponseFrame;
using serve::ServeResponse;
using serve::ServeStatus;
using serve::ServerConfig;
using serve::StatsResponseFrame;
using serve::WireError;

MiningRequest Request(const std::string& tenant, const std::string& dataset,
                      MiningAlgorithm algorithm, int ranks,
                      double minsup = 0.02) {
  MiningRequest request;
  request.tenant = tenant;
  request.dataset = dataset;
  request.algorithm = algorithm;
  request.num_ranks = ranks;
  request.config.apriori.minsup_fraction = minsup;
  return request;
}

// ---------------------------------------------------------------------------
// Frame round trips

TEST(ProtocolTest, HelloRoundTripAndNegotiation) {
  HelloFrame hello;
  const std::vector<std::byte> frame = serve::EncodeHello(hello);
  FrameReader reader;
  reader.Feed(frame);
  FrameType type;
  std::span<const std::byte> body;
  ASSERT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  EXPECT_EQ(type, FrameType::kHello);
  Result<HelloFrame> decoded = serve::DecodeHello(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  EXPECT_EQ(decoded.value().min_version, hello.min_version);
  EXPECT_EQ(decoded.value().max_version, hello.max_version);

  Result<serve::ProtocolVersion> version =
      serve::NegotiateVersion(decoded.value());
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(version.value(), serve::kMaxProtocolVersion);

  // A client from the future that still speaks v1 negotiates v1.
  HelloFrame future;
  future.min_version = 1;
  future.max_version = 40;
  Result<serve::ProtocolVersion> downgraded =
      serve::NegotiateVersion(future);
  ASSERT_TRUE(downgraded.ok());
  EXPECT_EQ(downgraded.value(), serve::ProtocolVersion::kV1);

  // Disjoint ranges and inverted ranges fail.
  HelloFrame disjoint;
  disjoint.min_version = 40;
  disjoint.max_version = 41;
  EXPECT_FALSE(serve::NegotiateVersion(disjoint).ok());
  HelloFrame inverted;
  inverted.min_version = 2;
  inverted.max_version = 1;
  EXPECT_FALSE(serve::NegotiateVersion(inverted).ok());
}

TEST(ProtocolTest, MineFrameRoundTripsEveryField) {
  MineFrame mine;
  mine.tag = 0xDEADBEEFCAFEull;
  mine.request = Request("acme", "retail", MiningAlgorithm::kHPA, 6, 0.031);
  mine.request.config.apriori.minsup_count = 17;
  mine.request.config.apriori.max_k = 5;
  mine.request.config.apriori.threads_per_rank = 3;
  mine.request.generate_rules = true;
  mine.request.min_confidence = 0.625;
  mine.request.deadline_ms = 1500.0;

  FrameReader reader;
  reader.Feed(serve::EncodeMine(mine));
  FrameType type;
  std::span<const std::byte> body;
  ASSERT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  ASSERT_EQ(type, FrameType::kMine);
  Result<MineFrame> decoded = serve::DecodeMine(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const MiningRequest& r = decoded.value().request;
  EXPECT_EQ(decoded.value().tag, mine.tag);
  EXPECT_EQ(r.tenant, "acme");
  EXPECT_EQ(r.dataset, "retail");
  EXPECT_EQ(r.algorithm, MiningAlgorithm::kHPA);
  EXPECT_EQ(r.num_ranks, 6);
  EXPECT_EQ(r.config.apriori.minsup_count, 17u);
  EXPECT_DOUBLE_EQ(r.config.apriori.minsup_fraction, 0.031);
  EXPECT_EQ(r.config.apriori.max_k, 5);
  EXPECT_EQ(r.config.apriori.threads_per_rank, 3);
  EXPECT_TRUE(r.generate_rules);
  EXPECT_DOUBLE_EQ(r.min_confidence, 0.625);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 1500.0);
}

// FNV-1a over a whole frame, to pin wire bytes compactly.
std::uint64_t FrameDigest(const std::vector<std::byte>& frame) {
  std::uint64_t h = 14695981039346656037ULL;
  for (std::byte b : frame) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 1099511628211ULL;
  }
  return h;
}

// The frame a client decodes for `response`, built field by field.
ResponseFrame FrameOf(std::uint64_t tag, const ServeResponse& response) {
  ResponseFrame frame;
  frame.tag = tag;
  frame.status = response.status;
  frame.error = response.error;
  frame.queue_seconds = response.queue_seconds;
  frame.service_seconds = response.service_seconds;
  frame.from_result_cache = response.from_result_cache;
  if (response.report != nullptr) {
    frame.frequent = response.report->frequent;
    frame.rules = response.report->rules;
    frame.minsup_count = response.report->minsup_count;
  }
  return frame;
}

// The frame NetServer writes for `response`: its head, then the payload it
// is sent with.
std::vector<std::byte> WireFrame(std::uint64_t tag,
                                 const ServeResponse& response) {
  const serve::PayloadHandle payload = serve::ResponsePayload(response);
  std::vector<std::byte> frame =
      serve::EncodeResponseHead(tag, response, payload->size());
  frame.insert(frame.end(), payload->begin(), payload->end());
  return frame;
}

TEST(ProtocolTest, ResponseFrameRoundTripsItemsetsAndRules) {
  // Mine a real report so the frame carries non-trivial levels and rules.
  const TransactionDatabase db = testing::TinyQuestDb();
  MiningSession session;
  MiningRequest request = Request("t", "d", MiningAlgorithm::kSerial, 1);
  request.generate_rules = true;
  request.min_confidence = 0.3;
  ServeResponse response;
  response.report = std::make_shared<const MiningReport>(
      session.Run(request, db));
  response.queue_seconds = 0.25;
  response.service_seconds = 1.5;
  response.from_result_cache = true;

  // The frame NetServer writes (head, then payload) and the one-buffer
  // encoder's are the same bytes, the ones the byte-at-a-time codec wrote
  // (digest pinned from it).
  const std::vector<std::byte> encoded = WireFrame(42, response);
  EXPECT_EQ(encoded, serve::EncodeResponse(FrameOf(42, response)));
  EXPECT_EQ(encoded.size(), 814459u);
  EXPECT_EQ(FrameDigest(encoded), 0x9e50918167bb2879ull);

  FrameReader reader;
  reader.Feed(encoded);
  FrameType type;
  std::span<const std::byte> body;
  ASSERT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  ASSERT_EQ(type, FrameType::kResponse);
  Result<ResponseFrame> decoded = serve::DecodeResponse(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  ResponseFrame& frame = decoded.value();
  EXPECT_EQ(frame.tag, 42u);
  EXPECT_EQ(frame.status, ServeStatus::kOk);
  EXPECT_TRUE(frame.from_result_cache);
  EXPECT_DOUBLE_EQ(frame.queue_seconds, 0.25);
  EXPECT_DOUBLE_EQ(frame.service_seconds, 1.5);
  EXPECT_EQ(frame.minsup_count, response.report->minsup_count);
  // Byte-identity of the mining payload across the wire.
  EXPECT_EQ(testing::Flatten(frame.frequent),
            testing::Flatten(response.report->frequent));
  ASSERT_EQ(frame.rules.size(), response.report->rules.size());
  ASSERT_GT(frame.rules.size(), 0u) << "test wants a non-trivial rule set";
  for (std::size_t i = 0; i < frame.rules.size(); ++i) {
    EXPECT_EQ(frame.rules[i].antecedent, response.report->rules[i].antecedent);
    EXPECT_EQ(frame.rules[i].consequent, response.report->rules[i].consequent);
    EXPECT_EQ(frame.rules[i].joint_count,
              response.report->rules[i].joint_count);
    EXPECT_DOUBLE_EQ(frame.rules[i].confidence,
                     response.report->rules[i].confidence);
  }

  // A failed response carries no report: it encodes with no itemsets and
  // no rules, to the same pinned bytes as before.
  ServeResponse failed;
  failed.status = ServeStatus::kMiningFault;
  failed.error = "dataset load failed: read failed";
  ASSERT_EQ(failed.report, nullptr);
  const std::vector<std::byte> failed_frame = WireFrame(7, failed);
  EXPECT_EQ(failed_frame, serve::EncodeResponse(FrameOf(7, failed)));
  EXPECT_EQ(FrameDigest(failed_frame), 0x747588040a0ffe57ull);
  reader.Feed(failed_frame);
  ASSERT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  Result<ResponseFrame> failed_decoded = serve::DecodeResponse(body);
  ASSERT_TRUE(failed_decoded.ok()) << failed_decoded.status().message();
  EXPECT_EQ(failed_decoded.value().status, ServeStatus::kMiningFault);
  EXPECT_EQ(failed_decoded.value().error, failed.error);
  EXPECT_TRUE(failed_decoded.value().frequent.levels.empty());
  EXPECT_TRUE(failed_decoded.value().rules.empty());
}

TEST(ProtocolTest, HeadThenPayloadIsTheWholeFrame) {
  // Three frames whose FNV-1a digests were taken from the one-buffer
  // encoder before the head/payload split: one with rules, one with an
  // error status and message, one whose report is empty. Written as head
  // then payload they are the same bytes, so the wire did not change.
  MiningSession session;
  MiningRequest request = Request("t", "d", MiningAlgorithm::kSerial, 1);
  request.generate_rules = true;
  request.min_confidence = 0.3;
  ServeResponse mined;
  mined.report = std::make_shared<const MiningReport>(
      session.Run(request, testing::TinyQuestDb()));
  mined.queue_seconds = 0.25;
  mined.service_seconds = 1.5;
  mined.from_result_cache = true;

  ServeResponse failed;
  failed.status = ServeStatus::kMiningFault;
  failed.error = "dataset load failed: read failed";

  MiningReport empty_report;
  empty_report.minsup_count = 12;
  ServeResponse empty;
  empty.report = std::make_shared<const MiningReport>(empty_report);
  empty.queue_seconds = 0.5;
  empty.service_seconds = 0.75;

  const struct {
    const char* name;
    std::uint64_t tag;
    const ServeResponse& response;
    std::size_t bytes;
    std::uint64_t digest;
  } frames[] = {
      {"rules", 42, mined, 814459u, 0x9e50918167bb2879ull},
      {"error", 7, failed, 87u, 0x747588040a0ffe57ull},
      {"empty", 9, empty, 55u, 0xe0db62b9559bc59eull},
  };
  for (const auto& f : frames) {
    const std::vector<std::byte> whole =
        serve::EncodeResponse(FrameOf(f.tag, f.response));
    EXPECT_EQ(whole.size(), f.bytes) << f.name;
    EXPECT_EQ(FrameDigest(whole), f.digest) << f.name;
    EXPECT_EQ(WireFrame(f.tag, f.response), whole) << f.name;
  }
}

TEST(ProtocolTest, StatsResponseRoundTripsEveryCounter) {
  StatsResponseFrame stats;
  stats.tag = 7;
  stats.stats.submitted = 101;
  stats.stats.admitted = 90;
  stats.stats.completed = 80;
  stats.stats.mining_faults = 4;
  stats.stats.cancelled = 3;
  stats.stats.deadline_exceeded = 3;
  stats.stats.expired_in_queue = 2;
  stats.stats.watchdog_fired = 1;
  stats.stats.rejected_queue_full = 5;
  stats.stats.rejected_tenant_in_flight = 2;
  stats.stats.rejected_tenant_budget = 1;
  stats.stats.rejected_unknown_dataset = 1;
  stats.stats.rejected_invalid = 1;
  stats.stats.rejected_shutdown = 1;
  stats.stats.cache_hits = 33;
  stats.stats.cache_misses = 4;
  stats.stats.cache_evictions = 2;
  stats.stats.result_hits = 21;
  stats.stats.result_misses = 59;
  stats.stats.result_evictions = 6;
  stats.stats.cache_resident_bytes = 1 << 20;
  stats.stats.result_resident_bytes = 4096;
  stats.stats.queue_depth = 3;
  stats.stats.peak_queue_depth = 11;
  stats.stats.leased_ranks = 6;
  stats.stats.rank_seconds_charged = 12.75;

  FrameReader reader;
  reader.Feed(serve::EncodeStatsResponse(stats));
  FrameType type;
  std::span<const std::byte> body;
  ASSERT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  ASSERT_EQ(type, FrameType::kStatsResponse);
  Result<StatsResponseFrame> decoded = serve::DecodeStatsResponse(body);
  ASSERT_TRUE(decoded.ok()) << decoded.status().message();
  const serve::ServerStats& s = decoded.value().stats;
  EXPECT_EQ(decoded.value().tag, 7u);
  EXPECT_EQ(s.submitted, 101u);
  EXPECT_EQ(s.admitted, 90u);
  EXPECT_EQ(s.completed, 80u);
  EXPECT_EQ(s.mining_faults, 4u);
  EXPECT_EQ(s.cancelled, 3u);
  EXPECT_EQ(s.deadline_exceeded, 3u);
  EXPECT_EQ(s.expired_in_queue, 2u);
  EXPECT_EQ(s.watchdog_fired, 1u);
  EXPECT_EQ(s.TotalRejected(), 11u);
  EXPECT_EQ(s.cache_hits, 33u);
  EXPECT_EQ(s.cache_misses, 4u);
  EXPECT_EQ(s.cache_evictions, 2u);
  EXPECT_EQ(s.result_hits, 21u);
  EXPECT_EQ(s.result_misses, 59u);
  EXPECT_EQ(s.result_evictions, 6u);
  EXPECT_EQ(s.cache_resident_bytes, std::size_t{1} << 20);
  EXPECT_EQ(s.result_resident_bytes, 4096u);
  EXPECT_EQ(s.queue_depth, 3u);
  EXPECT_EQ(s.peak_queue_depth, 11u);
  EXPECT_EQ(s.leased_ranks, 6);
  EXPECT_DOUBLE_EQ(s.rank_seconds_charged, 12.75);
  // The wire invariant the audit satellite protects: the decoded snapshot
  // still satisfies submitted == admitted + SUM(rejections).
  EXPECT_EQ(s.submitted, s.admitted + s.TotalRejected());
}

TEST(ProtocolTest, ErrorFrameRoundTripAndCloseTable) {
  ErrorFrame error;
  error.error = WireError::kDuplicateTag;
  error.message = "tag 9 already in flight";
  FrameReader reader;
  reader.Feed(serve::EncodeError(error));
  FrameType type;
  std::span<const std::byte> body;
  ASSERT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  ASSERT_EQ(type, FrameType::kError);
  Result<ErrorFrame> decoded = serve::DecodeError(body);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().error, WireError::kDuplicateTag);
  EXPECT_EQ(decoded.value().message, "tag 9 already in flight");

  // Framing-lost errors close; per-request refusals do not.
  EXPECT_TRUE(serve::WireErrorClosesConnection(WireError::kVersionMismatch));
  EXPECT_TRUE(serve::WireErrorClosesConnection(WireError::kMalformedFrame));
  EXPECT_TRUE(serve::WireErrorClosesConnection(WireError::kFrameTooLarge));
  EXPECT_TRUE(serve::WireErrorClosesConnection(WireError::kUnexpectedFrame));
  EXPECT_FALSE(serve::WireErrorClosesConnection(WireError::kDuplicateTag));
  EXPECT_FALSE(serve::WireErrorClosesConnection(WireError::kUnknownTag));
  EXPECT_FALSE(
      serve::WireErrorClosesConnection(WireError::kShutdownForbidden));
}

TEST(ProtocolTest, FrameReaderReassemblesByteAtATime) {
  // Three frames, delivered one byte at a time: the reader must yield
  // exactly those frames in order regardless of fragmentation.
  std::vector<std::byte> stream;
  for (const std::vector<std::byte>& f :
       {serve::EncodeHello(HelloFrame{}),
        serve::EncodeCancel(serve::CancelFrame{99}),
        serve::EncodeShutdown()}) {
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameReader reader;
  std::vector<FrameType> types;
  FrameType type;
  std::span<const std::byte> body;
  for (const std::byte b : stream) {
    reader.Feed(std::span<const std::byte>(&b, 1));
    while (reader.Next(&type, &body) == FrameReader::NextResult::kFrame) {
      types.push_back(type);
    }
  }
  EXPECT_EQ(types, (std::vector<FrameType>{FrameType::kHello,
                                           FrameType::kCancel,
                                           FrameType::kShutdown}));
  EXPECT_EQ(reader.buffered_bytes(), 0u);
}

TEST(ProtocolTest, FrameReaderRejectsOversizeAndUnknownType) {
  {
    FrameReader reader(/*max_frame_bytes=*/64);
    // Length prefix claiming 1 MiB against a 64-byte limit.
    const std::uint32_t huge = 1 << 20;
    std::byte header[5] = {};
    std::memcpy(header, &huge, 4);
    header[4] = std::byte{static_cast<unsigned char>(FrameType::kMine)};
    reader.Feed(header);
    FrameType type;
    std::span<const std::byte> body;
    EXPECT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kError);
    EXPECT_NE(reader.error().find("exceeds"), std::string::npos);
  }
  {
    FrameReader reader;
    const std::uint32_t len = 0;
    std::byte header[5] = {};
    std::memcpy(header, &len, 4);
    header[4] = std::byte{200};  // no such frame type
    reader.Feed(header);
    FrameType type;
    std::span<const std::byte> body;
    EXPECT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kError);
  }
}

TEST(ProtocolTest, DecodersRejectTruncatedBodies) {
  MineFrame mine;
  mine.tag = 5;
  mine.request = Request("t", "d", MiningAlgorithm::kCD, 2);
  const std::vector<std::byte> frame = serve::EncodeMine(mine);
  // Strip the 5-byte header; truncate the body at every length. No prefix
  // may decode (or crash) — the decoder must fail with a Status.
  const std::span<const std::byte> body(frame.data() + 5, frame.size() - 5);
  for (std::size_t n = 0; n < body.size(); ++n) {
    EXPECT_FALSE(serve::DecodeMine(body.first(n)).ok()) << "prefix " << n;
  }
  // Trailing garbage is rejected too.
  std::vector<std::byte> padded(body.begin(), body.end());
  padded.push_back(std::byte{1});
  EXPECT_FALSE(serve::DecodeMine(padded).ok());
}

// ---------------------------------------------------------------------------
// Line protocol (the scripting surface shared by pam_serve and pam_client)

TEST(ProtocolTest, ParseCommandLineVerbsAndDefaults) {
  Result<Command> mine = serve::ParseCommandLine(
      "mine id=r1 tenant=acme dataset=web algorithm=hd ranks=4 minsup=2 "
      "minconf=30 rules threads=2 max-k=3 deadline-ms=500");
  ASSERT_TRUE(mine.ok()) << mine.status().message();
  EXPECT_EQ(mine.value().verb, Command::Verb::kMine);
  EXPECT_EQ(mine.value().id, "r1");
  const MiningRequest& r = mine.value().request;
  EXPECT_EQ(r.tenant, "acme");
  EXPECT_EQ(r.dataset, "web");
  EXPECT_EQ(r.algorithm, MiningAlgorithm::kHD);
  EXPECT_EQ(r.num_ranks, 4);
  EXPECT_DOUBLE_EQ(r.config.apriori.minsup_fraction, 0.02);
  EXPECT_TRUE(r.generate_rules);
  EXPECT_DOUBLE_EQ(r.min_confidence, 0.30);
  EXPECT_EQ(r.config.apriori.threads_per_rank, 2);
  EXPECT_EQ(r.config.apriori.max_k, 3);
  EXPECT_DOUBLE_EQ(r.deadline_ms, 500.0);

  Result<Command> cancel = serve::ParseCommandLine("cancel r1");
  ASSERT_TRUE(cancel.ok());
  EXPECT_EQ(cancel.value().verb, Command::Verb::kCancel);
  EXPECT_EQ(cancel.value().id, "r1");

  ASSERT_TRUE(serve::ParseCommandLine("stats").ok());
  ASSERT_TRUE(serve::ParseCommandLine("shutdown").ok());
  // Blank and comment lines are no-ops, not errors.
  EXPECT_EQ(serve::ParseCommandLine("").value().verb, Command::Verb::kNone);
  EXPECT_EQ(serve::ParseCommandLine("  # note").value().verb,
            Command::Verb::kNone);
  // Unknown verbs, algorithms, and keys are typed failures.
  EXPECT_FALSE(serve::ParseCommandLine("mien id=x").ok());
  EXPECT_FALSE(
      serve::ParseCommandLine("mine id=x dataset=d algorithm=zz").ok());
  EXPECT_FALSE(
      serve::ParseCommandLine("mine id=x dataset=d minsupp=2").ok());
  // Numbers parse strictly: the whole token, finite, in range. A typo is a
  // typed failure naming the key, never a silent 0 (an unbounded mine at
  // minsup 0) or a truncated prefix.
  for (const char* field :
       {"ranks=2x", "ranks=1e3", "ranks=0", "ranks=", "ranks=99999999999",
        "threads=0", "threads=1.5", "max-k=-1", "max-k=abc", "minsup=abc",
        "minsup=nan", "minsup=-1", "minsup=101", "minsup=1,5", "minconf=nan",
        "minconf=-5", "minconf=250", "minconf=inf", "deadline-ms=inf",
        "deadline-ms=-1", "deadline-ms=1e300", "deadline-ms=5ms"}) {
    const std::string line = std::string("mine id=x dataset=d ") + field;
    const Result<Command> bad = serve::ParseCommandLine(line);
    ASSERT_FALSE(bad.ok()) << line;
    const std::string key = std::string(field).substr(
        0, std::string(field).find('='));
    EXPECT_NE(bad.status().message().find(key + " must be"),
              std::string::npos)
        << line << ": " << bad.status().message();
  }
  // The range ends themselves parse.
  Result<Command> edges = serve::ParseCommandLine(
      "mine id=x dataset=d ranks=1 threads=1 max-k=0 minsup=0 minconf=100 "
      "deadline-ms=0");
  ASSERT_TRUE(edges.ok()) << edges.status().message();
  EXPECT_DOUBLE_EQ(edges.value().request.min_confidence, 1.0);
  EXPECT_DOUBLE_EQ(edges.value().request.config.apriori.minsup_fraction, 0.0);
}

// ---------------------------------------------------------------------------
// CanonicalDigest

TEST(CanonicalDigestTest, InvariantToFormulationKnobs) {
  // Every formulation of the same mining problem computes byte-identical
  // results, so the digest must ignore algorithm/rank/thread spelling.
  MiningRequest base = Request("a", "d", MiningAlgorithm::kSerial, 1, 0.02);
  const std::uint64_t digest = base.CanonicalDigest();
  for (const MiningAlgorithm algorithm :
       {MiningAlgorithm::kCD, MiningAlgorithm::kDD, MiningAlgorithm::kDDComm,
        MiningAlgorithm::kIDD, MiningAlgorithm::kHD, MiningAlgorithm::kHPA}) {
    MiningRequest other = Request("b", "e", algorithm, 7, 0.02);
    other.config.apriori.threads_per_rank = 4;
    other.deadline_ms = 250;
    EXPECT_EQ(other.CanonicalDigest(), digest)
        << MiningAlgorithmName(algorithm);
  }
}

TEST(CanonicalDigestTest, ExplicitDefaultCollidesWithImplicitDefault) {
  // Spelling a field at its default must hash like omitting it — the
  // classic cache-miss bug when a digest hashes raw struct bytes.
  MiningRequest implicit_default =
      Request("a", "d", MiningAlgorithm::kSerial, 1);
  MiningRequest explicit_default =
      Request("a", "d", MiningAlgorithm::kSerial, 1);
  explicit_default.config.apriori.minsup_fraction = 0.02;  // == default arg
  explicit_default.min_confidence = 0.5;  // default, rules off: ignored
  EXPECT_EQ(implicit_default.CanonicalDigest(),
            explicit_default.CanonicalDigest());

  // minsup precedence: when the explicit count is set, the fraction is
  // dead config (ResolveMinsup never reads it) — digests must agree.
  MiningRequest count_a = Request("a", "d", MiningAlgorithm::kSerial, 1);
  count_a.config.apriori.minsup_count = 25;
  count_a.config.apriori.minsup_fraction = 0.02;
  MiningRequest count_b = Request("a", "d", MiningAlgorithm::kSerial, 1);
  count_b.config.apriori.minsup_count = 25;
  count_b.config.apriori.minsup_fraction = 0.9;
  EXPECT_EQ(count_a.CanonicalDigest(), count_b.CanonicalDigest());

  // min_confidence only matters once rules are requested.
  MiningRequest conf_a = Request("a", "d", MiningAlgorithm::kSerial, 1);
  conf_a.min_confidence = 0.3;
  MiningRequest conf_b = Request("a", "d", MiningAlgorithm::kSerial, 1);
  conf_b.min_confidence = 0.7;
  EXPECT_EQ(conf_a.CanonicalDigest(), conf_b.CanonicalDigest());
  conf_a.generate_rules = true;
  conf_b.generate_rules = true;
  EXPECT_NE(conf_a.CanonicalDigest(), conf_b.CanonicalDigest());
}

TEST(CanonicalDigestTest, SensitiveToResultAffectingFields) {
  const MiningRequest base = Request("a", "d", MiningAlgorithm::kSerial, 1);
  const std::uint64_t digest = base.CanonicalDigest();

  MiningRequest minsup = base;
  minsup.config.apriori.minsup_fraction = 0.05;
  EXPECT_NE(minsup.CanonicalDigest(), digest);

  MiningRequest count = base;
  count.config.apriori.minsup_count = 3;
  EXPECT_NE(count.CanonicalDigest(), digest);

  MiningRequest max_k = base;
  max_k.config.apriori.max_k = 2;
  EXPECT_NE(max_k.CanonicalDigest(), digest);

  MiningRequest rules = base;
  rules.generate_rules = true;
  EXPECT_NE(rules.CanonicalDigest(), digest);
}

// ---------------------------------------------------------------------------
// Loopback round trips

/// A raw TCP client for protocol-violation tests: speaks bytes, not the
/// protocol, so it can impersonate broken or hostile peers.
class RawClient {
 public:
  /// A nonzero `receive_buffer` shrinks SO_RCVBUF before connecting, so
  /// the window the server may fill stays small. A read that waits 30 s
  /// fails instead of hanging the test.
  bool Connect(int port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    if (receive_buffer > 0 &&
        ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                     sizeof receive_buffer) != 0) {
      return false;
    }
    const timeval timeout{30, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }
  bool Send(std::span<const std::byte> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }
  /// One read of at most `max_bytes`; empty at EOF or on an error.
  std::vector<std::byte> Recv(std::size_t max_bytes) {
    std::vector<std::byte> bytes(max_bytes);
    const ssize_t n = ::recv(fd_, bytes.data(), bytes.size(), 0);
    bytes.resize(n > 0 ? static_cast<std::size_t>(n) : 0);
    return bytes;
  }
  /// Reads until EOF; returns everything the server sent.
  std::vector<std::byte> RecvAll() {
    std::vector<std::byte> all;
    std::byte buf[4096];
    ssize_t n;
    while ((n = ::recv(fd_, buf, sizeof(buf), 0)) > 0) {
      all.insert(all.end(), buf, buf + n);
    }
    return all;
  }
  ~RawClient() {
    if (fd_ >= 0) ::close(fd_);
  }

 private:
  int fd_ = -1;
};

/// Decodes the single kError frame a violation test expects back.
ErrorFrame ExpectErrorFrame(const std::vector<std::byte>& bytes) {
  FrameReader reader;
  reader.Feed(bytes);
  FrameType type = FrameType::kHello;
  std::span<const std::byte> body;
  EXPECT_EQ(reader.Next(&type, &body), FrameReader::NextResult::kFrame);
  EXPECT_EQ(type, FrameType::kError);
  Result<ErrorFrame> decoded = serve::DecodeError(body);
  EXPECT_TRUE(decoded.ok());
  return decoded.ok() ? decoded.value() : ErrorFrame{};
}

/// A NetServer over a fresh MiningServer with the quest dataset loaded.
struct LoopbackHarness {
  explicit LoopbackHarness(ServerConfig config = {},
                           NetServerConfig net_config = {})
      : server(config), net(&server, net_config) {
    server.datasets().RegisterLoaded(
        "quest", TransactionDatabase(testing::SmallQuestDb()));
    const Status status = net.Start();
    EXPECT_TRUE(status.ok()) << status.message();
  }
  ~LoopbackHarness() {
    server.Shutdown();
    net.Stop();
  }

  MiningServer server;
  NetServer net;
};

TEST(NetServeTest, LoopbackAllAlgorithmsMatchSolo) {
  const TransactionDatabase db = testing::SmallQuestDb();
  LoopbackHarness harness;

  NetClient client;
  const Status connected = client.Connect("127.0.0.1", harness.net.port());
  ASSERT_TRUE(connected.ok()) << connected.message();
  EXPECT_EQ(client.version(), serve::ProtocolVersion::kV1);

  const struct {
    MiningAlgorithm algorithm;
    int ranks;
  } mix[] = {
      {MiningAlgorithm::kSerial, 1}, {MiningAlgorithm::kCD, 4},
      {MiningAlgorithm::kDD, 3},     {MiningAlgorithm::kIDD, 4},
      {MiningAlgorithm::kHD, 4},     {MiningAlgorithm::kHPA, 3},
  };

  // Pipeline all six, then collect by tag: WFQ may complete them in any
  // order, and the wire must carry each one back byte-identical.
  for (std::size_t i = 0; i < std::size(mix); ++i) {
    MiningRequest request =
        Request("net", "quest", mix[i].algorithm, mix[i].ranks);
    request.generate_rules = true;
    request.min_confidence = 0.3;
    ASSERT_TRUE(client.SendMine(i + 1, request).ok());
  }
  std::map<std::uint64_t, ResponseFrame> responses;
  for (std::size_t i = 0; i < std::size(mix); ++i) {
    Result<NetClient::ServerFrame> frame = client.Recv();
    ASSERT_TRUE(frame.ok()) << frame.status().message();
    ASSERT_EQ(frame.value().type, FrameType::kResponse);
    const std::uint64_t tag = frame.value().response.tag;
    responses[tag] = std::move(frame.value().response);
  }
  ASSERT_EQ(responses.size(), std::size(mix));

  for (std::size_t i = 0; i < std::size(mix); ++i) {
    MiningRequest solo_request =
        Request("solo", "quest", mix[i].algorithm, mix[i].ranks);
    solo_request.generate_rules = true;
    solo_request.min_confidence = 0.3;
    MiningSession solo;
    const MiningReport reference = solo.Run(solo_request, db);

    const ResponseFrame& response = responses.at(i + 1);
    EXPECT_EQ(response.status, ServeStatus::kOk)
        << MiningAlgorithmName(mix[i].algorithm) << ": " << response.error;
    EXPECT_EQ(testing::Flatten(response.frequent),
              testing::Flatten(reference.frequent))
        << MiningAlgorithmName(mix[i].algorithm);
    EXPECT_EQ(response.rules.size(), reference.rules.size());
    EXPECT_EQ(response.minsup_count, reference.minsup_count);
  }

  // A stats poll over the same connection sees the six completions.
  ASSERT_TRUE(client.SendStats(100).ok());
  Result<NetClient::ServerFrame> stats = client.Recv();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats.value().type, FrameType::kStatsResponse);
  EXPECT_EQ(stats.value().stats.tag, 100u);
  EXPECT_EQ(stats.value().stats.stats.completed, std::size(mix));
  EXPECT_EQ(stats.value().stats.stats.submitted,
            stats.value().stats.stats.admitted +
                stats.value().stats.stats.TotalRejected());
  EXPECT_EQ(harness.net.ConnectionsAccepted(), 1u);
}

TEST(NetServeTest, VersionMismatchAnswersTypedErrorAndCloses) {
  LoopbackHarness harness;
  RawClient raw;
  ASSERT_TRUE(raw.Connect(harness.net.port()));
  HelloFrame hello;
  hello.min_version = 99;
  hello.max_version = 120;
  ASSERT_TRUE(raw.Send(serve::EncodeHello(hello)));
  // The server answers one kError{kVersionMismatch} and closes (RecvAll
  // returning means EOF arrived).
  const ErrorFrame error = ExpectErrorFrame(raw.RecvAll());
  EXPECT_EQ(error.error, WireError::kVersionMismatch);
}

TEST(NetServeTest, GarbageConnectionAnswersTypedErrorAndCloses) {
  LoopbackHarness harness;
  RawClient raw;
  ASSERT_TRUE(raw.Connect(harness.net.port()));
  const char garbage[] = "GET / HTTP/1.0\r\n\r\n";
  ASSERT_TRUE(raw.Send(std::as_bytes(std::span(garbage))));
  // "GET " reads as a ~1.2 GB length prefix: framing is lost, the server
  // answers a typed error and closes without buffering the claimed body.
  const ErrorFrame error = ExpectErrorFrame(raw.RecvAll());
  EXPECT_EQ(error.error, WireError::kFrameTooLarge);
}

TEST(NetServeTest, MineBeforeHelloIsUnexpectedFrame) {
  LoopbackHarness harness;
  RawClient raw;
  ASSERT_TRUE(raw.Connect(harness.net.port()));
  MineFrame mine;
  mine.tag = 1;
  mine.request = Request("t", "quest", MiningAlgorithm::kSerial, 1);
  ASSERT_TRUE(raw.Send(serve::EncodeMine(mine)));
  const ErrorFrame error = ExpectErrorFrame(raw.RecvAll());
  EXPECT_EQ(error.error, WireError::kUnexpectedFrame);
}

TEST(NetServeTest, HalfClosedClientStillReceivesResponses) {
  LoopbackHarness harness;
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.net.port()).ok());
  ASSERT_TRUE(
      client.SendMine(1, Request("t", "quest", MiningAlgorithm::kHD, 4))
          .ok());
  // EOF the request direction before the response exists: the server must
  // hold the connection until the pending response flushes.
  client.CloseWrite();
  Result<NetClient::ServerFrame> frame = client.Recv();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, FrameType::kResponse);
  EXPECT_EQ(frame.value().response.status, ServeStatus::kOk);
  // ... then closes: the next read is EOF, not a hang.
  EXPECT_FALSE(client.Recv().ok());
}

TEST(NetServeTest, PerRequestRefusalsKeepStreamHealthy) {
  LoopbackHarness harness;  // allow_shutdown defaults to false
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.net.port()).ok());

  // Cancel of a tag never submitted: typed refusal.
  ASSERT_TRUE(client.SendCancel(404).ok());
  Result<NetClient::ServerFrame> frame = client.Recv();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.value().type, FrameType::kError);
  EXPECT_EQ(frame.value().error.error, WireError::kUnknownTag);

  // Shutdown without --allow-shutdown: typed refusal.
  ASSERT_TRUE(client.SendShutdown().ok());
  frame = client.Recv();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.value().type, FrameType::kError);
  EXPECT_EQ(frame.value().error.error, WireError::kShutdownForbidden);

  // A binary kMine frame passes the same admission as a local request: a
  // rules request at NaN confidence is answered kInvalidRequest.
  MiningRequest nan_conf = Request("t", "quest", MiningAlgorithm::kSerial, 1);
  nan_conf.generate_rules = true;
  nan_conf.min_confidence = std::numeric_limits<double>::quiet_NaN();
  ASSERT_TRUE(client.SendMine(2, nan_conf).ok());
  frame = client.Recv();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.value().type, FrameType::kResponse);
  EXPECT_EQ(frame.value().response.status, ServeStatus::kInvalidRequest);
  EXPECT_EQ(harness.server.Stats().rejected_invalid, 1u);

  // The stream survived every refusal: a real request still works.
  ASSERT_TRUE(
      client.SendMine(1, Request("t", "quest", MiningAlgorithm::kSerial, 1))
          .ok());
  frame = client.Recv();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.value().type, FrameType::kResponse);
  EXPECT_EQ(frame.value().response.status, ServeStatus::kOk);
}

TEST(NetServeTest, DuplicateTagRefusedWhileOriginalInFlight) {
  ServerConfig config;
  config.workers = 1;
  LoopbackHarness harness(config);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.net.port()).ok());
  ASSERT_TRUE(
      client.SendMine(7, Request("t", "quest", MiningAlgorithm::kCD, 4))
          .ok());
  ASSERT_TRUE(
      client.SendMine(7, Request("t", "quest", MiningAlgorithm::kCD, 4))
          .ok());
  // First frame back is the duplicate-tag refusal (the original is still
  // mining); then the original's response arrives normally.
  Result<NetClient::ServerFrame> frame = client.Recv();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.value().type, FrameType::kError);
  EXPECT_EQ(frame.value().error.error, WireError::kDuplicateTag);
  frame = client.Recv();
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.value().type, FrameType::kResponse);
  EXPECT_EQ(frame.value().response.tag, 7u);
  EXPECT_EQ(frame.value().response.status, ServeStatus::kOk);
}

TEST(NetServeTest, RemoteShutdownDrainsWhenAllowed) {
  ServerConfig config;
  NetServerConfig net_config;
  net_config.allow_shutdown = true;
  auto harness = std::make_unique<LoopbackHarness>(config, net_config);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness->net.port()).ok());
  ASSERT_TRUE(
      client.SendMine(1, Request("t", "quest", MiningAlgorithm::kSerial, 1))
          .ok());
  ASSERT_TRUE(client.SendShutdown().ok());

  // The daemon main-loop contract: wait, drain, stop. The in-flight
  // request completes and its response reaches the client.
  std::thread daemon([&] {
    EXPECT_TRUE(harness->net.WaitForShutdownRequest());
    harness->server.Shutdown();
    harness->net.Stop();
  });
  Result<NetClient::ServerFrame> frame = client.Recv();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, FrameType::kResponse);
  EXPECT_EQ(frame.value().response.status, ServeStatus::kOk);
  daemon.join();
  harness.reset();
}

// ---------------------------------------------------------------------------
// Weighted fair queueing

TEST(WfqTest, ServiceSharesTrackWeightsUnderSaturation) {
  // One worker, hold it on a gated dataset load, then queue 12 equal-cost
  // jobs each for a weight-3 and a weight-1 tenant. SFQ dispatch order is
  // then fully deterministic: the heavy tenant's virtual clock advances
  // 1/3 as fast, so it receives ~3 completions per light completion.
  ServerConfig config;
  config.pool_ranks = 2;
  config.workers = 1;
  config.max_queue = 64;
  config.tenant_quotas["heavy"].weight = 3.0;
  config.tenant_quotas["light"].weight = 1.0;
  MiningServer server(config);
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::TinyQuestDb()));

  // The primer job blocks inside its dataset load until the gate opens,
  // holding the single worker while both tenants' backlogs queue up.
  auto gate = std::make_shared<std::promise<void>>();
  auto opened = std::make_shared<std::shared_future<void>>(
      gate->get_future().share());
  server.datasets().Register(
      "gated", [opened]() -> Result<TransactionDatabase> {
        opened->wait();
        return testing::TinyQuestDb();
      });
  std::future<ServeResponse> primer =
      server.Submit(Request("primer", "gated", MiningAlgorithm::kSerial, 1));

  std::mutex mu;
  std::vector<std::string> completion_order;
  constexpr int kJobsPerTenant = 12;
  for (int i = 0; i < kJobsPerTenant; ++i) {
    for (const char* tenant : {"heavy", "light"}) {
      server.SubmitWith(
          Request(tenant, "quest", MiningAlgorithm::kSerial, 1),
          [&mu, &completion_order, tenant](ServeResponse response) {
            EXPECT_EQ(response.status, ServeStatus::kOk);
            std::lock_guard<std::mutex> lock(mu);
            completion_order.emplace_back(tenant);
          });
    }
  }

  gate->set_value();
  EXPECT_EQ(primer.get().status, ServeStatus::kOk);
  server.Shutdown();
  ASSERT_EQ(completion_order.size(), 2u * kJobsPerTenant);

  // Early-window share: among the first 8 completions the heavy tenant
  // must hold >= 2.5x the light tenant's share (exact SFQ gives 6:2).
  constexpr std::size_t kWindow = 8;
  const auto heavy_in_window = static_cast<double>(
      std::count(completion_order.begin(),
                 completion_order.begin() + kWindow, "heavy"));
  const double light_in_window = kWindow - heavy_in_window;
  ASSERT_GT(light_in_window, 0.0) << "starved light tenant";
  EXPECT_GE(heavy_in_window / light_in_window, 2.5);

  // Starvation bound: the light tenant's k-th completion arrives within
  // (weight_ratio + 1) * (k + 1) total completions — SFQ admits at most
  // ~3 heavy jobs between consecutive light dispatches.
  std::size_t light_seen = 0;
  for (std::size_t i = 0; i < completion_order.size(); ++i) {
    if (completion_order[i] == "light") {
      EXPECT_LE(i + 1, 4 * (light_seen + 1) + 1)
          << "light completion " << light_seen << " delayed to slot " << i;
      ++light_seen;
    }
  }
  EXPECT_EQ(light_seen, kJobsPerTenant);

  // Post-drain invariants, extended per-tenant: dispatched sums to
  // admitted, and rank-second charges reproduce the global counter.
  const serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.submitted, stats.admitted + stats.TotalRejected());
  const serve::TenantUsage heavy = server.UsageFor("heavy");
  const serve::TenantUsage light = server.UsageFor("light");
  const serve::TenantUsage primer_usage = server.UsageFor("primer");
  EXPECT_EQ(heavy.dispatched + light.dispatched + primer_usage.dispatched,
            stats.admitted);
  EXPECT_EQ(heavy.dispatched, static_cast<std::uint64_t>(kJobsPerTenant));
  EXPECT_NEAR(heavy.rank_seconds + light.rank_seconds +
                  primer_usage.rank_seconds,
              stats.rank_seconds_charged, 1e-9);
}

TEST(WfqTest, EqualWeightsInterleaveFairly) {
  // Control: with equal weights the same setup alternates tenants, so
  // neither ever leads by more than one completed job.
  ServerConfig config;
  config.pool_ranks = 2;
  config.workers = 1;
  config.max_queue = 64;
  MiningServer server(config);
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::TinyQuestDb()));
  auto gate = std::make_shared<std::promise<void>>();
  auto opened = std::make_shared<std::shared_future<void>>(
      gate->get_future().share());
  server.datasets().Register(
      "gated", [opened]() -> Result<TransactionDatabase> {
        opened->wait();
        return testing::TinyQuestDb();
      });
  std::future<ServeResponse> primer =
      server.Submit(Request("primer", "gated", MiningAlgorithm::kSerial, 1));

  std::mutex mu;
  std::vector<std::string> completion_order;
  for (int i = 0; i < 8; ++i) {
    for (const char* tenant : {"a", "b"}) {
      server.SubmitWith(
          Request(tenant, "quest", MiningAlgorithm::kSerial, 1),
          [&mu, &completion_order, tenant](ServeResponse response) {
            EXPECT_EQ(response.status, ServeStatus::kOk);
            std::lock_guard<std::mutex> lock(mu);
            completion_order.emplace_back(tenant);
          });
    }
  }
  gate->set_value();
  primer.get();
  server.Shutdown();

  int lead = 0;
  for (const std::string& tenant : completion_order) {
    lead += tenant == "a" ? 1 : -1;
    EXPECT_LE(std::abs(lead), 1);
  }
}

// ---------------------------------------------------------------------------
// Result cache

TEST(ResultCacheTest, HitIsByteIdenticalAndLeasesNoRank) {
  ServerConfig config;
  config.result_cache = true;
  MiningServer server(config);
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::SmallQuestDb()));

  MiningRequest cold = Request("acme", "quest", MiningAlgorithm::kHD, 4);
  cold.generate_rules = true;
  cold.min_confidence = 0.3;
  const ServeResponse cold_response = server.Execute(std::move(cold));
  ASSERT_EQ(cold_response.status, ServeStatus::kOk);
  EXPECT_FALSE(cold_response.from_result_cache);
  const std::uint64_t leases_after_cold = server.pool().LeasesGranted();

  // Same mining problem, different tenant AND different formulation: the
  // canonical digest normalizes both away, so this must hit.
  MiningRequest hot = Request("globex", "quest", MiningAlgorithm::kSerial, 1);
  hot.generate_rules = true;
  hot.min_confidence = 0.3;
  const ServeResponse hot_response = server.Execute(std::move(hot));
  ASSERT_EQ(hot_response.status, ServeStatus::kOk);
  EXPECT_TRUE(hot_response.from_result_cache);

  // Byte-identity with the cold run's report: the hit hands out the very
  // report the cold run mined and published.
  EXPECT_EQ(hot_response.report.get(), cold_response.report.get());
  EXPECT_EQ(testing::Flatten(hot_response.report->frequent),
            testing::Flatten(cold_response.report->frequent));
  ASSERT_EQ(hot_response.report->rules.size(),
            cold_response.report->rules.size());
  EXPECT_EQ(hot_response.report->minsup_count,
            cold_response.report->minsup_count);

  // Zero machine cost: no new rank lease, no tenant charge.
  EXPECT_EQ(server.pool().LeasesGranted(), leases_after_cold);
  EXPECT_DOUBLE_EQ(server.UsageFor("globex").rank_seconds, 0.0);

  server.Shutdown();
  const serve::ServerStats stats = server.Stats();
  EXPECT_EQ(stats.result_hits, 1u);
  EXPECT_EQ(stats.result_misses, 1u);
  EXPECT_GT(stats.result_resident_bytes, 0u);
  // A hit is still an admitted, completed, dispatched request — every
  // Submit early-return path must keep the ledger balanced.
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.submitted, stats.admitted + stats.TotalRejected());
  EXPECT_EQ(server.UsageFor("acme").dispatched +
                server.UsageFor("globex").dispatched,
            stats.admitted);
}

TEST(ResultCacheTest, DisabledByDefaultAndDistinctProblemsMiss) {
  MiningServer server{ServerConfig{}};
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::TinyQuestDb()));
  const ServeResponse first =
      server.Execute(Request("t", "quest", MiningAlgorithm::kSerial, 1));
  const ServeResponse second =
      server.Execute(Request("t", "quest", MiningAlgorithm::kSerial, 1));
  ASSERT_EQ(first.status, ServeStatus::kOk);
  ASSERT_EQ(second.status, ServeStatus::kOk);
  EXPECT_FALSE(second.from_result_cache);
  server.Shutdown();
  EXPECT_EQ(server.Stats().result_hits, 0u);
  EXPECT_EQ(server.Stats().result_misses, 0u);
}

TEST(ResultCacheTest, DifferentMinsupMisses) {
  ServerConfig config;
  config.result_cache = true;
  MiningServer server(config);
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::TinyQuestDb()));

  const ServeResponse a = server.Execute(
      Request("t", "quest", MiningAlgorithm::kSerial, 1, 0.02));
  const ServeResponse b = server.Execute(
      Request("t", "quest", MiningAlgorithm::kSerial, 1, 0.05));
  ASSERT_EQ(a.status, ServeStatus::kOk);
  ASSERT_EQ(b.status, ServeStatus::kOk);
  EXPECT_FALSE(b.from_result_cache);
  server.Shutdown();
  EXPECT_EQ(server.Stats().result_hits, 0u);
  EXPECT_EQ(server.Stats().result_misses, 2u);
}

TEST(ResultCacheTest, ReRegisteredDatasetMissesItsOldResults) {
  // Results are keyed on the registration, not the name: after "quest" is
  // re-registered with another database, the same request must re-mine
  // that database, and only a repeat after the re-mine may hit.
  ServerConfig config;
  config.result_cache = true;
  MiningServer server(config);
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::TinyQuestDb()));
  const ServeResponse old_run =
      server.Execute(Request("t", "quest", MiningAlgorithm::kSerial, 1));
  ASSERT_EQ(old_run.status, ServeStatus::kOk);

  const TransactionDatabase fresh = testing::SeededQuestDb(7);
  server.datasets().RegisterLoaded("quest", TransactionDatabase(fresh));
  const ServeResponse remined =
      server.Execute(Request("t", "quest", MiningAlgorithm::kSerial, 1));
  ASSERT_EQ(remined.status, ServeStatus::kOk);
  EXPECT_FALSE(remined.from_result_cache);
  AprioriConfig reference_config;
  reference_config.minsup_fraction = 0.02;
  EXPECT_EQ(testing::Flatten(remined.report->frequent),
            testing::SerialReference(fresh, reference_config));

  const ServeResponse repeat =
      server.Execute(Request("t", "quest", MiningAlgorithm::kSerial, 1));
  ASSERT_EQ(repeat.status, ServeStatus::kOk);
  EXPECT_TRUE(repeat.from_result_cache);
  EXPECT_EQ(repeat.report.get(), remined.report.get());

  server.Shutdown();
  EXPECT_EQ(server.Stats().result_hits, 1u);
  EXPECT_EQ(server.Stats().result_misses, 2u);
}

TEST(ResultCacheTest, NetResponsesByteIdenticalAcrossHit) {
  // End to end: the same request twice over TCP; the second is served
  // from the cache and its wire payload must match the first exactly.
  ServerConfig config;
  config.result_cache = true;
  LoopbackHarness harness(config);
  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.net.port()).ok());

  MiningRequest request = Request("t", "quest", MiningAlgorithm::kCD, 4);
  request.generate_rules = true;
  request.min_confidence = 0.3;
  ASSERT_TRUE(client.SendMine(1, request).ok());
  Result<NetClient::ServerFrame> first = client.Recv();
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first.value().type, FrameType::kResponse);
  ASSERT_EQ(first.value().response.status, ServeStatus::kOk);
  EXPECT_FALSE(first.value().response.from_result_cache);

  ASSERT_TRUE(client.SendMine(2, request).ok());
  Result<NetClient::ServerFrame> second = client.Recv();
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second.value().type, FrameType::kResponse);
  ASSERT_EQ(second.value().response.status, ServeStatus::kOk);
  EXPECT_TRUE(second.value().response.from_result_cache);
  EXPECT_EQ(testing::Flatten(second.value().response.frequent),
            testing::Flatten(first.value().response.frequent));
  EXPECT_EQ(second.value().response.rules.size(),
            first.value().response.rules.size());
  EXPECT_EQ(second.value().response.minsup_count,
            first.value().response.minsup_count);
}

TEST(ResultCacheTest, PayloadIsEncodedOnceAndSharedByHits) {
  ServerConfig config;
  config.result_cache = true;
  MiningServer server(config);
  server.datasets().RegisterLoaded(
      "quest", TransactionDatabase(testing::SmallQuestDb()));
  MiningRequest request = Request("t", "quest", MiningAlgorithm::kCD, 2);
  request.generate_rules = true;
  request.min_confidence = 0.3;

  const ServeResponse fresh = server.Submit(request).get();
  ASSERT_EQ(fresh.status, ServeStatus::kOk);
  EXPECT_FALSE(fresh.from_result_cache);
  ASSERT_NE(fresh.payload, nullptr);
  // The entry is charged the report and its payload together.
  const std::size_t resident = server.Stats().result_resident_bytes;
  EXPECT_EQ(resident,
            serve::ReportBytes(*fresh.report) + fresh.payload->size());
  EXPECT_EQ(*fresh.payload, serve::EncodeResponsePayload(*fresh.report));

  // Both hits carry the very buffer the publish encoded: no hit encodes.
  for (int hit = 0; hit < 2; ++hit) {
    const ServeResponse again = server.Submit(request).get();
    ASSERT_EQ(again.status, ServeStatus::kOk);
    EXPECT_TRUE(again.from_result_cache);
    EXPECT_EQ(again.report.get(), fresh.report.get());
    EXPECT_EQ(again.payload.get(), fresh.payload.get());
  }
  EXPECT_EQ(server.Stats().result_resident_bytes, resident);
  EXPECT_EQ(server.Stats().result_hits, 2u);
}

TEST(ResultCacheTest, UncachedResponsesEncodeTheirOwnPayload) {
  // A timeline run is run-specific, so it skips the cache both ways: it
  // carries no shared payload, and the frame encoded for it is still the
  // one its report spells. The wire cannot ask for a timeline, so the
  // NetServer half uses the other response that carries no payload, an
  // error status, with the result cache on.
  ServerConfig config;
  config.result_cache = true;
  LoopbackHarness harness(config);
  MiningRequest request = Request("t", "quest", MiningAlgorithm::kSerial, 1);
  request.collect_timeline = true;
  const ServeResponse timed = harness.server.Submit(request).get();
  ASSERT_EQ(timed.status, ServeStatus::kOk);
  EXPECT_EQ(timed.payload, nullptr);
  EXPECT_EQ(harness.server.Stats().result_resident_bytes, 0u);
  EXPECT_EQ(harness.server.Stats().result_misses, 0u);
  EXPECT_EQ(WireFrame(5, timed), serve::EncodeResponse(FrameOf(5, timed)));

  NetClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", harness.net.port()).ok());
  ASSERT_TRUE(
      client.SendMine(6, Request("t", "nope", MiningAlgorithm::kSerial, 1))
          .ok());
  Result<NetClient::ServerFrame> frame = client.Recv();
  ASSERT_TRUE(frame.ok()) << frame.status().message();
  ASSERT_EQ(frame.value().type, FrameType::kResponse);
  const ResponseFrame& response = frame.value().response;
  EXPECT_EQ(response.tag, 6u);
  EXPECT_EQ(response.status, ServeStatus::kUnknownDataset);
  EXPECT_EQ(response.error, "unknown dataset 'nope'");
  EXPECT_TRUE(response.frequent.levels.empty());
  EXPECT_TRUE(response.rules.empty());
}

TEST(NetServeTest, ShortWritesKeepFramesWholeAndInOrder) {
  // One connection, one worker, the result cache on: a fresh mine and two
  // hits of a 3.2 MB response, then a stats poll, a refused cancel and a
  // third hit. The client shrinks its receive buffer and reads nothing
  // until all six are queued, so the server's sendmsg runs into short
  // writes: the three responses are several megabytes more than the
  // socket buffers hold, and the owned kStats and kError frames queue
  // behind a shared payload that is still pending. Every frame must
  // arrive whole, in submission order, with the bytes of the in-process
  // response.
  ServerConfig config;
  config.workers = 1;
  config.result_cache = true;
  LoopbackHarness harness(config);
  const TransactionDatabase db = testing::TinyQuestDb();
  harness.server.datasets().RegisterLoaded("tiny", TransactionDatabase(db));
  MiningRequest request = Request("t", "tiny", MiningAlgorithm::kSerial, 1,
                                  /*minsup=*/0.01);
  request.generate_rules = true;
  request.min_confidence = 0.3;
  ServeResponse solo;
  MiningSession session;
  solo.report = std::make_shared<const MiningReport>(
      session.Run(request, db));

  RawClient raw;
  ASSERT_TRUE(raw.Connect(harness.net.port(), /*receive_buffer=*/4096));
  ASSERT_TRUE(raw.Send(serve::EncodeHello(HelloFrame{})));
  FrameReader reader;
  FrameType type;
  std::span<const std::byte> body;
  while (reader.Next(&type, &body) != FrameReader::NextResult::kFrame) {
    const std::vector<std::byte> bytes = raw.Recv(4096);
    ASSERT_FALSE(bytes.empty());
    reader.Feed(bytes);
  }
  ASSERT_EQ(type, FrameType::kHelloAck);

  const auto send_mine = [&](std::uint64_t tag) {
    MineFrame mine;
    mine.tag = tag;
    mine.request = request;
    return raw.Send(serve::EncodeMine(mine));
  };
  for (std::uint64_t tag = 1; tag <= 3; ++tag) ASSERT_TRUE(send_mine(tag));
  // The three responses are queued once the loop has drained their
  // completions, which follow the counted completion by microseconds; the
  // pause leaves that hand-off ample room before the next frames arrive.
  while (harness.server.Stats().completed < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  ASSERT_TRUE(raw.Send(serve::EncodeStats(serve::StatsFrame{50})));
  ASSERT_TRUE(raw.Send(serve::EncodeCancel(serve::CancelFrame{999})));
  ASSERT_TRUE(send_mine(4));

  // Read slowly, a few KB at a time, until six frames have arrived.
  std::vector<FrameType> types;
  std::vector<std::vector<std::byte>> frames;
  for (int reads = 0; frames.size() < 6; ++reads) {
    while (frames.size() < 6 &&
           reader.Next(&type, &body) == FrameReader::NextResult::kFrame) {
      types.push_back(type);
      // The view dies at the next Feed: keep a copy of the whole frame.
      std::vector<std::byte> frame(5);
      const auto length = static_cast<std::uint32_t>(body.size());
      std::memcpy(frame.data(), &length, sizeof length);
      frame[4] = static_cast<std::byte>(type);
      frame.insert(frame.end(), body.begin(), body.end());
      frames.push_back(std::move(frame));
    }
    if (frames.size() == 6) break;
    if (reads % 64 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    const std::vector<std::byte> bytes = raw.Recv(4096);
    ASSERT_FALSE(bytes.empty()) << "closed or silent for 30 s after "
                                << frames.size() << " frames";
    reader.Feed(bytes);
  }
  ASSERT_EQ(types, (std::vector<FrameType>{
                       FrameType::kResponse, FrameType::kResponse,
                       FrameType::kResponse, FrameType::kStatsResponse,
                       FrameType::kError, FrameType::kResponse}));
  EXPECT_EQ(reader.buffered_bytes(), 0u);

  const std::uint64_t response_tags[] = {1, 2, 3, 0, 0, 4};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const std::span<const std::byte> frame_body(frames[i].data() + 5,
                                                frames[i].size() - 5);
    if (types[i] == FrameType::kStatsResponse) {
      Result<StatsResponseFrame> stats =
          serve::DecodeStatsResponse(frame_body);
      ASSERT_TRUE(stats.ok()) << stats.status().message();
      EXPECT_EQ(stats.value().tag, 50u);
      continue;
    }
    if (types[i] == FrameType::kError) {
      Result<ErrorFrame> error = serve::DecodeError(frame_body);
      ASSERT_TRUE(error.ok()) << error.status().message();
      EXPECT_EQ(error.value().error, WireError::kUnknownTag);
      continue;
    }
    Result<ResponseFrame> decoded = serve::DecodeResponse(frame_body);
    ASSERT_TRUE(decoded.ok()) << decoded.status().message();
    // The in-process response, with the times this run's server measured.
    ServeResponse expected = solo;
    expected.queue_seconds = decoded.value().queue_seconds;
    expected.service_seconds = decoded.value().service_seconds;
    expected.from_result_cache = response_tags[i] != 1;
    EXPECT_EQ(frames[i],
              serve::EncodeResponse(FrameOf(response_tags[i], expected)))
        << "frame " << i;
  }
}

}  // namespace
}  // namespace pam
