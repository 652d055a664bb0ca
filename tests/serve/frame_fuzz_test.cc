// Deterministic mutation fuzzing of the wire protocol's FrameReader and of
// every frame decoder (ctest labels `fuzz` and `serve`; scripts/ci.sh runs
// the `fuzz` label under ASan/UBSan). The seeds are frames from every
// encoder; each decoder gets a fixed number of mutants of its own frame
// type, drawn from a seeded Prng by the mutators in testing/mutate.h, so
// every run tries the same inputs and a failure names the trial and the
// input that caused it. Each mutant is fed to a FrameReader in seeded
// pieces, and every frame it yields goes, as a view of the reader's
// buffer, to the decoder of that frame's type before the next piece is
// fed. The properties:
//   - nothing crashes or trips a sanitizer, and framing errors carry a
//     message;
//   - a decoder returns a typed error with a message, or a value, and a
//     decoded response's itemsets are strictly increasing, as
//     ItemsetCollection requires;
//   - a decoded value re-encodes to one whole frame of its type, which
//     decodes and re-encodes to the same bytes (decode -> encode -> decode
//     is a fixed point).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pam/serve/protocol.h"
#include "pam/util/prng.h"
#include "testing/mutate.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using serve::FrameReader;
using serve::FrameType;
using testing::Bytes;
using testing::Printable;
using Frame = std::vector<std::byte>;

constexpr int kMutantsPerDecoder = 3000;

Bytes ToBytes(const Frame& frame) {
  return Bytes(reinterpret_cast<const char*>(frame.data()), frame.size());
}

std::span<const std::byte> AsSpan(const Bytes& bytes) {
  return {reinterpret_cast<const std::byte*>(bytes.data()), bytes.size()};
}

// Sets a u32 or a u64 at any offset to a boundary value: where it lands on
// a length or a count, the decoder must bound it before it allocates.
void MutateFrameWord(Bytes& b, Prng& rng) {
  const std::size_t width = rng.NextBounded(2) == 0 ? 4 : 8;
  if (b.size() < width) return;
  const std::uint64_t values[] = {0,
                                  1,
                                  b.size() - 5,
                                  b.size(),
                                  0x7fffffff,
                                  0xffffffff,
                                  std::uint64_t{1} << 32,
                                  std::uint64_t{1} << 63,
                                  ~std::uint64_t{0}};
  const std::uint64_t v = values[rng.NextBounded(std::size(values))];
  const std::size_t pos = rng.NextBounded(b.size() - width + 1);
  std::memcpy(b.data() + pos, &v, width);  // the low bytes, little-endian
}

const testing::MutationSpace kFrameSpace{"", MutateFrameWord};

template <typename T>
Result<Frame> EncodeDecoded(const Result<T>& decoded,
                            Frame (*encode)(const T&)) {
  if (!decoded.ok()) return decoded.status();
  return encode(decoded.value());
}

// Decodes `body` with the decoder of `type` and encodes the value again.
// A shutdown frame has no decoder: its body is never read.
Result<Frame> Reencode(FrameType type, std::span<const std::byte> body) {
  switch (type) {
    case FrameType::kHello:
      return EncodeDecoded(serve::DecodeHello(body), serve::EncodeHello);
    case FrameType::kHelloAck:
      return EncodeDecoded(serve::DecodeHelloAck(body),
                           serve::EncodeHelloAck);
    case FrameType::kMine:
      return EncodeDecoded(serve::DecodeMine(body), serve::EncodeMine);
    case FrameType::kCancel:
      return EncodeDecoded(serve::DecodeCancel(body), serve::EncodeCancel);
    case FrameType::kStats:
      return EncodeDecoded(serve::DecodeStats(body), serve::EncodeStats);
    case FrameType::kResponse:
      return EncodeDecoded(serve::DecodeResponse(body),
                           serve::EncodeResponse);
    case FrameType::kStatsResponse:
      return EncodeDecoded(serve::DecodeStatsResponse(body),
                           serve::EncodeStatsResponse);
    case FrameType::kError:
      return EncodeDecoded(serve::DecodeError(body), serve::EncodeError);
    case FrameType::kShutdown:
      return serve::EncodeShutdown();
  }
  return Status::Error("unknown frame type");
}

// The seed frames, keyed by type: every encoder, with every field away
// from its default somewhere.
std::map<FrameType, std::vector<Bytes>> Seeds() {
  std::map<FrameType, std::vector<Bytes>> seeds;
  const auto add = [&seeds](FrameType type, const Frame& frame) {
    seeds[type].push_back(ToBytes(frame));
  };
  add(FrameType::kHello, serve::EncodeHello(serve::HelloFrame{}));
  add(FrameType::kHello, serve::EncodeHello(serve::HelloFrame{1, 40}));
  add(FrameType::kHelloAck,
      serve::EncodeHelloAck({serve::ProtocolVersion::kV1, "pam_serve/1"}));

  serve::MineFrame mine;
  mine.tag = 0xDEADBEEFCAFEull;
  mine.request.tenant = "acme";
  mine.request.dataset = "retail";
  mine.request.algorithm = MiningAlgorithm::kHPA;
  mine.request.num_ranks = 6;
  mine.request.config.apriori.minsup_count = 17;
  mine.request.config.apriori.minsup_fraction = 0.031;
  mine.request.config.apriori.max_k = 5;
  mine.request.config.apriori.threads_per_rank = 3;
  mine.request.generate_rules = true;
  mine.request.min_confidence = 0.625;
  mine.request.deadline_ms = 1500.0;
  add(FrameType::kMine, serve::EncodeMine(mine));
  add(FrameType::kCancel, serve::EncodeCancel({7}));
  add(FrameType::kStats, serve::EncodeStats({8}));

  // A mined response with itemsets and rules, and a failed one with none.
  MiningRequest request;
  request.algorithm = MiningAlgorithm::kSerial;
  request.config.apriori.minsup_fraction = 0.1;
  request.generate_rules = true;
  request.min_confidence = 0.5;
  MiningSession session;
  MiningReport report = session.Run(request, testing::TinyQuestDb());
  serve::ResponseFrame ok;
  ok.tag = 42;
  ok.queue_seconds = 0.25;
  ok.service_seconds = 1.5;
  ok.from_result_cache = true;
  ok.minsup_count = report.minsup_count;
  ok.frequent = std::move(report.frequent);
  ok.rules = std::move(report.rules);
  add(FrameType::kResponse, serve::EncodeResponse(ok));
  serve::ResponseFrame failed;
  failed.tag = 43;
  failed.status = serve::ServeStatus::kMiningFault;
  failed.error = "dataset load failed: read failed";
  failed.service_seconds = 0.125;
  add(FrameType::kResponse, serve::EncodeResponse(failed));

  serve::StatsResponseFrame stats;
  stats.tag = 9;
  stats.stats.submitted = 101;
  stats.stats.admitted = 90;
  stats.stats.completed = 80;
  stats.stats.result_hits = 12;
  stats.stats.cache_resident_bytes = 1 << 20;
  stats.stats.peak_queue_depth = 5;
  stats.stats.leased_ranks = 3;
  stats.stats.rank_seconds_charged = 2.5;
  add(FrameType::kStatsResponse, serve::EncodeStatsResponse(stats));
  add(FrameType::kError,
      serve::EncodeError({serve::WireError::kDuplicateTag,
                          "tag 7 already in flight"}));
  add(FrameType::kShutdown, serve::EncodeShutdown());
  return seeds;
}

const char* TypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello_ack";
    case FrameType::kMine: return "mine";
    case FrameType::kCancel: return "cancel";
    case FrameType::kStats: return "stats";
    case FrameType::kResponse: return "response";
    case FrameType::kStatsResponse: return "stats_response";
    case FrameType::kError: return "error";
    case FrameType::kShutdown: return "shutdown";
  }
  return "unknown";
}

// Names the input in a failure message; built only when a check fails.
std::string Context(int trial, const Bytes& input) {
  return (trial < 0 ? "seed" : "trial " + std::to_string(trial)) +
         " input " + Printable(input);
}

bool ItemsetsIncrease(const serve::ResponseFrame& frame) {
  for (const ItemsetCollection& level : frame.frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      const ItemSpan set = level.Get(i);
      for (std::size_t j = 1; j < set.size(); ++j) {
        if (set[j - 1] >= set[j]) return false;
      }
    }
  }
  return true;
}

// Checks one frame the reader yielded; returns whether it decoded.
bool CheckFrame(FrameType type, std::span<const std::byte> body, int trial,
                const Bytes& input) {
  const Result<Frame> once = Reencode(type, body);
  if (!once.ok()) {
    EXPECT_FALSE(once.status().message().empty()) << Context(trial, input);
    return false;
  }
  if (type == FrameType::kResponse) {
    EXPECT_TRUE(ItemsetsIncrease(serve::DecodeResponse(body).value()))
        << Context(trial, input);
  }
  FrameReader reader;
  reader.Feed(once.value());
  FrameType again_type;
  std::span<const std::byte> again_body;
  EXPECT_EQ(reader.Next(&again_type, &again_body),
            FrameReader::NextResult::kFrame)
      << Context(trial, input);
  EXPECT_EQ(again_type, type) << Context(trial, input);
  EXPECT_EQ(reader.buffered_bytes(), 0u) << Context(trial, input);
  const Result<Frame> twice = Reencode(again_type, again_body);
  EXPECT_TRUE(twice.ok()) << Context(trial, input)
                          << " re-decode: " << twice.status().message();
  if (twice.ok()) {
    EXPECT_EQ(twice.value(), once.value()) << Context(trial, input);
  }
  return true;
}

// Feeds `input` to a FrameReader in seeded pieces and checks every frame
// it yields, decoding each body view before the next Feed, which may move
// the buffer under it (under ASan a read through a stale view aborts);
// returns how many decoded.
int CheckStream(const Bytes& input, int trial) {
  FrameReader reader;
  Prng rng(0x5eedu + static_cast<std::uint64_t>(trial + 1));
  const std::span<const std::byte> stream = AsSpan(input);
  std::size_t fed = 0;
  FrameType type;
  std::span<const std::byte> body;
  int decoded = 0;
  for (;;) {
    const FrameReader::NextResult next = reader.Next(&type, &body);
    if (next == FrameReader::NextResult::kError) {
      EXPECT_FALSE(reader.error().empty()) << Context(trial, input);
      break;
    }
    if (next == FrameReader::NextResult::kFrame) {
      decoded += CheckFrame(type, body, trial, input) ? 1 : 0;
      continue;
    }
    if (fed == stream.size()) break;
    const std::size_t piece = std::min<std::size_t>(
        stream.size() - fed, 1 + rng.NextBounded(stream.size()));
    reader.Feed(stream.subspan(fed, piece));
    fed += piece;
  }
  return decoded;
}

TEST(FrameFuzzTest, EverySeedRoundTripsByteForByte) {
  for (const auto& [type, seeds] : Seeds()) {
    for (const Bytes& seed : seeds) {
      EXPECT_EQ(CheckStream(seed, -1), 1) << TypeName(type);
      FrameReader reader;
      reader.Feed(AsSpan(seed));
      FrameType got;
      std::span<const std::byte> body;
      ASSERT_EQ(reader.Next(&got, &body), FrameReader::NextResult::kFrame);
      EXPECT_EQ(got, type);
      const Result<Frame> again = Reencode(got, body);
      ASSERT_TRUE(again.ok()) << Context(-1, seed);
      EXPECT_EQ(ToBytes(again.value()), seed) << TypeName(type);
    }
  }
}

class FrameFuzzTest : public ::testing::TestWithParam<FrameType> {};

TEST_P(FrameFuzzTest, MutantsFailTypedOrDecodeToAFixedPoint) {
  const std::vector<Bytes> seeds = Seeds().at(GetParam());
  Prng rng(0xf4a3e0u + static_cast<std::uint64_t>(GetParam()));
  int decoded = 0;
  for (int trial = 0; trial < kMutantsPerDecoder && !HasFailure(); ++trial) {
    Bytes mutant = testing::Mutate(seeds, kFrameSpace, rng);
    // Half the mutants get a length prefix that matches their new size, so
    // resized bodies reach the decoder instead of stalling the reader.
    if (mutant.size() >= 5 && rng.NextBounded(2) == 0) {
      const auto body_bytes = static_cast<std::uint32_t>(mutant.size() - 5);
      std::memcpy(mutant.data(), &body_bytes, sizeof body_bytes);
    }
    decoded += CheckStream(mutant, trial) > 0;
  }
  // A mutator that only ever breaks the frame, or never does, tests little.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, kMutantsPerDecoder);
}

INSTANTIATE_TEST_SUITE_P(
    EveryDecoder, FrameFuzzTest,
    ::testing::Values(FrameType::kHello, FrameType::kHelloAck,
                      FrameType::kMine, FrameType::kCancel, FrameType::kStats,
                      FrameType::kResponse, FrameType::kStatsResponse,
                      FrameType::kError),
    [](const ::testing::TestParamInfo<FrameType>& info) {
      return std::string(TypeName(info.param));
    });

}  // namespace
}  // namespace pam
