#include "pam/mp/payload.h"

#include <cstring>
#include <thread>

#include <gtest/gtest.h>

namespace pam {
namespace {

std::vector<std::byte> Bytes(std::initializer_list<unsigned char> values) {
  std::vector<std::byte> out;
  for (unsigned char v : values) out.push_back(std::byte{v});
  return out;
}

TEST(PayloadChecksumTest, SensitiveToEveryBytePosition) {
  // Flip one byte at a time across a buffer spanning several 8-byte words
  // plus a ragged tail; every flip must change the checksum (the kernel
  // folds full words and a packed tail word).
  std::vector<std::byte> base(21);
  for (std::size_t i = 0; i < base.size(); ++i) {
    base[i] = std::byte{static_cast<unsigned char>(i * 7 + 1)};
  }
  const std::uint64_t reference = PayloadChecksum(base);
  for (std::size_t i = 0; i < base.size(); ++i) {
    std::vector<std::byte> mutated = base;
    mutated[i] ^= std::byte{0x01};
    EXPECT_NE(PayloadChecksum(mutated), reference) << "byte " << i;
  }
}

TEST(PayloadChecksumTest, SensitiveToLength) {
  // Appending or stripping zero bytes must change the checksum even when
  // the tail word packs to the same value — the length fold guarantees a
  // truncation at a word boundary is still caught.
  const std::vector<std::byte> eight(8, std::byte{0});
  const std::vector<std::byte> sixteen(16, std::byte{0});
  EXPECT_NE(PayloadChecksum(eight), PayloadChecksum(sixteen));
  EXPECT_NE(PayloadChecksum({}), PayloadChecksum(eight));
}

TEST(PayloadChecksumTest, MatchesReferenceFnvOverWords) {
  // The word-at-a-time kernel is FNV-1a over little-endian-packed words;
  // pin one value so the wire framing cannot silently change.
  std::vector<std::byte> data = Bytes({1, 2, 3, 4, 5, 6, 7, 8});
  std::uint64_t word = 0;
  std::memcpy(&word, data.data(), 8);
  std::uint64_t expected = 14695981039346656037ULL;
  expected = (expected ^ word) * 1099511628211ULL;
  expected = (expected ^ 8u) * 1099511628211ULL;  // length fold
  EXPECT_EQ(PayloadChecksum(data), expected);
}

TEST(PayloadTest, CopySnapshotsAndMemoizesChecksum) {
  std::vector<std::byte> source = Bytes({10, 20, 30});
  const Payload payload = Payload::Copy(source);
  const std::uint64_t before = payload.checksum();
  source[0] = std::byte{99};  // mutating the source must not reach the copy
  EXPECT_EQ(payload.checksum(), before);
  EXPECT_EQ(payload.checksum(), PayloadChecksum(payload.bytes()));
  EXPECT_EQ(payload.size(), 3u);
  EXPECT_EQ(payload.bytes()[0], std::byte{10});
}

TEST(PayloadTest, AdoptTakesOwnershipWithoutCounting) {
  const std::uint64_t copies_before = Payload::CopyCount();
  const Payload payload = Payload::Adopt(Bytes({1, 2, 3, 4}));
  EXPECT_EQ(Payload::CopyCount(), copies_before);  // no materialization
  EXPECT_EQ(payload.size(), 4u);
  EXPECT_EQ(payload.checksum(), PayloadChecksum(payload.bytes()));
}

TEST(PayloadTest, CopyIncrementsTheCopyCounter) {
  const std::uint64_t copies_before = Payload::CopyCount();
  const Payload a = Payload::Copy(Bytes({1}));
  const Payload b = a;  // handle copy: free
  const Payload c = Payload::Copy(a.bytes());
  EXPECT_EQ(Payload::CopyCount() - copies_before, 2u);
  EXPECT_TRUE(a.SharesBufferWith(b));
  EXPECT_FALSE(a.SharesBufferWith(c));
}

TEST(PayloadTest, EmptyPayloadIsWellFormed) {
  const Payload empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.checksum(), PayloadChecksum({}));
  // Copying an empty span also yields the canonical empty payload.
  const std::uint64_t copies_before = Payload::CopyCount();
  const Payload copied = Payload::Copy({});
  EXPECT_TRUE(copied.empty());
  EXPECT_EQ(Payload::CopyCount(), copies_before);
  EXPECT_FALSE(empty.SharesBufferWith(copied));  // no rep to share
}

TEST(PayloadTest, HandlesShareOneBufferAcrossScopes) {
  Payload outer;
  {
    const Payload inner = Payload::Copy(Bytes({7, 8, 9}));
    outer = inner;
  }  // inner gone; the shared buffer must survive
  ASSERT_EQ(outer.size(), 3u);
  EXPECT_EQ(outer.bytes()[2], std::byte{9});
}

TEST(PayloadTest, ConcurrentChecksumCallsAgree) {
  // First use races benignly: all threads must observe the same value.
  const Payload payload = Payload::Copy(Bytes({1, 2, 3, 4, 5, 6, 7, 8, 9}));
  const std::uint64_t expected = PayloadChecksum(payload.bytes());
  std::vector<std::thread> threads;
  std::vector<std::uint64_t> seen(8, 0);
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] { seen[t] = payload.checksum(); });
  }
  for (auto& th : threads) th.join();
  for (std::uint64_t value : seen) EXPECT_EQ(value, expected);
}

}  // namespace
}  // namespace pam
