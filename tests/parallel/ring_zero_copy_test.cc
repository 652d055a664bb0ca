#include <atomic>

#include <gtest/gtest.h>

#include "pam/mp/payload.h"
#include "pam/mp/runtime.h"
#include "pam/parallel/common.h"

namespace pam {
namespace {

// Regression guards (label: comm_perf) pinning the transport's zero-copy
// contract through Payload::CopyCount(): materializing a payload from
// raw bytes is the only operation that increments it, so the counter
// measures exactly how many times message bytes were copied, process-wide.

TEST(RingZeroCopyGuard, ForwardingHopsDoNotCopyPayloads) {
  // Every page circulates P-1 hops. The only copies the whole pipeline may
  // perform are the initial per-page wraps plus the round-count
  // negotiation's small collective — if a per-hop copy ever sneaks back
  // into RingShiftAll, the count jumps by ~(P-1)x and this fails.
  const int p = 8;
  const std::uint64_t rounds = 4;
  Runtime rt(p);
  std::atomic<std::uint64_t> pages_seen{0};
  const std::uint64_t copies_before = Payload::CopyCount();
  rt.Run([&](Comm& comm) {
    std::vector<Page> pages(rounds);
    for (std::uint64_t i = 0; i < rounds; ++i) {
      pages[i].assign(
          1024, static_cast<std::uint32_t>(comm.rank()) * 100 +
                    static_cast<std::uint32_t>(i));
    }
    parallel_internal::RingShiftAll(
        comm, pages, [&pages_seen](PageView) { pages_seen += 1; }, nullptr);
  });
  // Every rank saw all P * rounds pages.
  EXPECT_EQ(pages_seen.load(),
            static_cast<std::uint64_t>(p) * p * rounds);

  const std::uint64_t delta = Payload::CopyCount() - copies_before;
  const std::uint64_t wraps = static_cast<std::uint64_t>(p) * rounds;
  // AllReduceMax exchanges log2(P) one-word messages per rank.
  const std::uint64_t collective_slack = static_cast<std::uint64_t>(p) * 4;
  EXPECT_GE(delta, wraps);
  EXPECT_LE(delta, wraps + collective_slack)
      << "ring forwarding reintroduced a per-hop payload copy";
  // And the old per-hop-copy regime (P * rounds * (P-1) materializations)
  // is comfortably far away.
  EXPECT_LT(delta, wraps * static_cast<std::uint64_t>(p - 1) / 2);
}

TEST(RingZeroCopyGuard, AllGatherForwardsHandlesWithoutCopying) {
  // Each member contributes one pre-wrapped handle; the ring's P-1
  // forwarding steps per rank must add zero materializations, so the
  // process-wide delta is exactly P (the contributions we made ourselves).
  const int p = 8;
  Runtime rt(p);
  const std::uint64_t copies_before = Payload::CopyCount();
  rt.Run([](Comm& comm) {
    const std::vector<std::uint32_t> mine(
        256, static_cast<std::uint32_t>(comm.rank()));
    Payload handle = Payload::Copy(std::span<const std::byte>(
        reinterpret_cast<const std::byte*>(mine.data()),
        mine.size() * sizeof(std::uint32_t)));
    const std::vector<Payload> all = comm.AllGatherPayload(std::move(handle));
    ASSERT_EQ(all.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      const auto* words = reinterpret_cast<const std::uint32_t*>(
          all[static_cast<std::size_t>(r)].data());
      EXPECT_EQ(words[0], static_cast<std::uint32_t>(r));
    }
  });
  EXPECT_EQ(Payload::CopyCount() - copies_before,
            static_cast<std::uint64_t>(p))
      << "all-gather forwarding reintroduced a per-hop payload copy";
}

}  // namespace
}  // namespace pam
