// The byte-budgeted LRU cache under both serving caches (ctest label
// `serve`; scripts/ci.sh runs it under ASan/UBSan and TSan).
//
// Contracts under test (DESIGN.md §13, §15):
//   - over budget, the least-recently-used unpinned entry goes first;
//   - an entry a caller still holds is never evicted;
//   - a value that cannot fit is refused and not cached;
//   - a Put over an existing key counts the old entry as evicted;
//   - a TTL drops idle entries on the next Get;
//   - ResidentBytes() <= BudgetBytes() at every point under concurrent
//     Get/Put/Erase.

#include "pam/serve/budgeted_cache.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace pam {
namespace {

using Cache = serve::BudgetedCache<std::string, int>;

Cache::Handle Value(int v) { return std::make_shared<const int>(v); }

TEST(BudgetedCacheTest, EvictsLeastRecentlyUsedFirst) {
  Cache cache(/*budget_bytes=*/30);
  ASSERT_TRUE(cache.Put("a", Value(1), 10));
  ASSERT_TRUE(cache.Put("b", Value(2), 10));
  ASSERT_TRUE(cache.Put("c", Value(3), 10));
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ASSERT_NE(cache.Get("a"), nullptr);  // "b" is now the LRU entry

  ASSERT_TRUE(cache.Put("d", Value(4), 10));
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_NE(cache.Get("d"), nullptr);
  EXPECT_EQ(cache.Hits(), 4u);
  EXPECT_EQ(cache.Misses(), 1u);
  EXPECT_EQ(cache.ResidentBytes(), 30u);
}

TEST(BudgetedCacheTest, PinnedEntriesSurviveEviction) {
  Cache cache(/*budget_bytes=*/20);
  Cache::Handle pinned = Value(1);
  ASSERT_TRUE(cache.Put("a", pinned, 10));  // the LRU entry, but held
  ASSERT_TRUE(cache.Put("b", Value(2), 10));
  ASSERT_TRUE(cache.Put("c", Value(3), 10));  // must evict "b" instead
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_EQ(cache.Get("a"), pinned);
  EXPECT_EQ(cache.Get("b"), nullptr);

  Cache::Handle also_pinned = cache.Get("c");
  EXPECT_FALSE(cache.Put("d", Value(4), 10));  // everything is pinned
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_EQ(cache.ResidentBytes(), 20u);

  pinned.reset();
  also_pinned.reset();
  EXPECT_TRUE(cache.Put("d", Value(4), 10));  // LRU applies again
  EXPECT_EQ(cache.Evictions(), 2u);
  EXPECT_LE(cache.ResidentBytes(), cache.BudgetBytes());
}

TEST(BudgetedCacheTest, UnfittablePutIsRefusedAndNotCached) {
  Cache cache(/*budget_bytes=*/10);
  ASSERT_TRUE(cache.Put("small", Value(1), 10));
  EXPECT_FALSE(cache.Put("huge", Value(2), 11));  // alone over budget
  EXPECT_EQ(cache.Get("huge"), nullptr);
  EXPECT_NE(cache.Get("small"), nullptr);  // nothing evicted for it
  EXPECT_EQ(cache.Evictions(), 0u);
  EXPECT_EQ(cache.ResidentBytes(), 10u);

  Cache unlimited;  // budget 0: everything fits
  EXPECT_TRUE(unlimited.Put("huge", Value(2), std::size_t{1} << 40));
}

TEST(BudgetedCacheTest, ReplacingPutCountsAnEviction) {
  Cache cache;
  ASSERT_TRUE(cache.Put("a", Value(1), 10));
  ASSERT_TRUE(cache.Put("a", Value(2), 15));
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_EQ(cache.ResidentBytes(), 15u);
  EXPECT_EQ(*cache.Get("a"), 2);

  cache.Erase("a");  // the owner's own drop is not an eviction
  EXPECT_EQ(cache.Evictions(), 1u);
  EXPECT_EQ(cache.ResidentBytes(), 0u);
  EXPECT_EQ(cache.Get("a"), nullptr);
}

TEST(BudgetedCacheTest, TtlDropsIdleEntries) {
  Cache cache(/*budget_bytes=*/0, /*ttl_ms=*/1.0);
  ASSERT_TRUE(cache.Put("a", Value(1), 10));
  ASSERT_TRUE(cache.Put("b", Value(2), 10));
  Cache::Handle pinned = cache.Get("b");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(cache.Get("a"), nullptr);  // sweep drops idle "a" first
  EXPECT_EQ(cache.Evictions(), 1u);    // held "b" is pinned, not idle-dropped
  EXPECT_EQ(cache.Get("b"), pinned);
}

TEST(BudgetedCacheTest, ConcurrentTrafficStaysWithinBudget) {
  constexpr std::size_t kBudget = 100;
  Cache cache(kBudget);
  std::atomic<bool> over_budget{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string key = std::to_string((t * 7 + i) % 12);
        switch (i % 4) {
          case 0:
          case 1:
            cache.Put(key, Value(i), 10 + static_cast<std::size_t>(i % 25));
            break;
          case 2: {
            Cache::Handle held = cache.Get(key);  // pins while held
            if (held != nullptr) {
              EXPECT_GE(*held, 0);
            }
            break;
          }
          default:
            cache.Erase(key);
        }
        if (cache.ResidentBytes() > cache.BudgetBytes()) over_budget = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_FALSE(over_budget.load());
  EXPECT_LE(cache.ResidentBytes(), kBudget);
  EXPECT_EQ(cache.Hits() + cache.Misses(), 4u * 500u);
}

}  // namespace
}  // namespace pam
