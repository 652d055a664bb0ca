// Nothing the transport allocates outlives its handles or its run. This
// binary replaces the global operator new and operator delete with
// counting versions, so the tests read the bytes the process still holds
// through them: a payload's buffer must go back to the allocator with its
// last handle, and a mining run at P = 4 must leave the count where it
// found it once its report is dropped.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "pam/hashtree/pair_counter.h"
#include "pam/mp/payload.h"
#include "pam/parallel/driver.h"
#include "testing/random_db.h"

namespace {

// Bytes handed out by operator new and not yet deleted, process-wide.
std::atomic<std::int64_t> g_outstanding{0};

// Every block carries its size in a header of one max_align_t, so the
// pointer handed out keeps operator new's alignment.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* CountedNew(std::size_t size) {
  void* block = std::malloc(size + kHeader);
  if (block == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(block) = size;
  g_outstanding.fetch_add(static_cast<std::int64_t>(size),
                          std::memory_order_relaxed);
  return static_cast<std::byte*>(block) + kHeader;
}

void CountedDelete(void* p) {
  if (p == nullptr) return;
  void* block = static_cast<std::byte*>(p) - kHeader;
  g_outstanding.fetch_sub(
      static_cast<std::int64_t>(*static_cast<std::size_t*>(block)),
      std::memory_order_relaxed);
  std::free(block);
}

std::int64_t Outstanding() {
  return g_outstanding.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t size) { return CountedNew(size); }
void* operator new[](std::size_t size) { return CountedNew(size); }
void operator delete(void* p) noexcept { CountedDelete(p); }
void operator delete[](void* p) noexcept { CountedDelete(p); }
void operator delete(void* p, std::size_t) noexcept { CountedDelete(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedDelete(p); }

namespace pam {
namespace {

constexpr std::int64_t kMiB = std::int64_t{1} << 20;

TEST(PayloadMemoryTest, CopyBufferIsFreedWithItsLastHandle) {
  const std::vector<std::byte> source(static_cast<std::size_t>(kMiB),
                                      std::byte{7});
  // The second round copies the same size again, so a buffer kept from
  // the first round would show as a copy that allocated nothing.
  for (int round = 0; round < 2; ++round) {
    const std::int64_t before = Outstanding();
    std::int64_t held = 0;
    {
      const Payload payload = Payload::Copy(source);
      const Payload forwarded = payload;  // a second handle, no new bytes
      held = Outstanding() - before;
    }
    const std::int64_t after = Outstanding() - before;
    EXPECT_GE(held, kMiB) << "round " << round;
    EXPECT_EQ(after, 0) << "round " << round;
  }
}

// Mines `db` with `algorithm` at four ranks, checks that it finds
// `expected` itemsets, and returns the change in outstanding bytes once
// the report is gone.
std::int64_t RunGrowth(Algorithm algorithm, const TransactionDatabase& db,
                       const ParallelConfig& cfg, std::size_t expected) {
  const std::int64_t before = Outstanding();
  {
    const MiningReport report = MineParallel(algorithm, db, 4, cfg);
    EXPECT_EQ(report.frequent.TotalCount(), expected);
  }
  return Outstanding() - before;
}

TEST(PayloadMemoryTest, RunsLeaveNoMessageBuffersBehind) {
  // 800 items drawn uniformly into 2,000 rows of up to 40 items: every
  // item clears the support of 20, and no pair does, so the run is pass
  // 1 and a pass-2 triangle of 319,600 counts whose all-reduce is the
  // bulk of what the ranks send.
  const TransactionDatabase db = testing::RandomDb(2000, 800, 40, 25);
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 20;

  // The warm-up mines at one rank and sends no message; it pays for
  // whatever the first run in a process sets up once.
  const MiningReport warm = MineParallel(Algorithm::kCD, db, 1, cfg);
  ASSERT_FALSE(warm.frequent.levels.empty());
  const std::size_t f1 = warm.frequent.levels[0].size();
  ASSERT_GE(TrianglePairCounter::CellsFor(f1) * sizeof(Count),
            static_cast<std::size_t>(kMiB));

  constexpr std::int64_t kSlack = 64 * 1024;
  const std::size_t expected = warm.frequent.TotalCount();
  const std::int64_t cd = RunGrowth(Algorithm::kCD, db, cfg, expected);
  EXPECT_LE(std::abs(cd), kSlack)
      << "a CD run at P = 4 moved the count by " << cd << " bytes";
  const std::int64_t idd = RunGrowth(Algorithm::kIDD, db, cfg, expected);
  EXPECT_LE(std::abs(idd), kSlack)
      << "an IDD run at P = 4 moved the count by " << idd << " bytes";
}

}  // namespace
}  // namespace pam
