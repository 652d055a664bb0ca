#ifndef PAM_SERVE_BUDGETED_CACHE_H_
#define PAM_SERVE_BUDGETED_CACHE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "pam/obs/trace.h"

namespace pam::serve {

/// The byte-budgeted LRU cache under both serving caches: the dataset cache
/// keeps loaded databases in one, the result cache finished reports
/// (DESIGN.md §13, §15). Entries are shared read-only values. A handle a
/// caller still holds pins its entry (use_count > 1), so eviction only drops
/// the cache's own reference and never frees a value in use.
///
/// With a nonzero budget, Put evicts least-recently-used unpinned entries
/// until the newcomer fits, and refuses it when it cannot: alone over
/// budget, or everything resident pinned. ResidentBytes() therefore never
/// exceeds the budget. A nonzero TTL drops unpinned entries idle longer than
/// that, swept on every Get.
///
/// Every Get counts one hit or one miss. Every entry dropped by the budget,
/// the TTL or a replacing Put counts one eviction and emits a `cache_evict`
/// trace instant. Thread-safe: one mutex guards the whole cache.
template <typename K, typename V>
class BudgetedCache {
 public:
  using Handle = std::shared_ptr<const V>;

  /// `budget_bytes` caps resident bytes (0 = unlimited); `ttl_ms` drops
  /// entries idle longer than this (0 = never).
  explicit BudgetedCache(std::size_t budget_bytes = 0, double ttl_ms = 0)
      : budget_bytes_(budget_bytes), ttl_ms_(ttl_ms) {}

  /// The entry under `key`, or nullptr on a miss.
  Handle Get(const K& key) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    SweepTtlLocked(now);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++misses_;
      return nullptr;
    }
    ++hits_;
    it->second.last_use = now;
    return it->second.value;
  }

  /// Caches `value` under `key`, counting `bytes` against the budget. An
  /// entry already under `key` is evicted first. Returns false, caching
  /// nothing, when the value cannot fit.
  bool Put(const K& key, Handle value, std::size_t bytes) {
    const Clock::time_point now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) EvictLocked(it, "replaced");
    if (!MakeRoomLocked(bytes)) {
      EmitEvictInstant("uncacheable");
      return false;
    }
    resident_bytes_ += bytes;
    entries_.emplace(key, Entry{std::move(value), bytes, now});
    return true;
  }

  /// Drops the entry under `key`, if any, without counting an eviction:
  /// its owner superseded it. Outstanding handles stay valid.
  void Erase(const K& key) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    resident_bytes_ -= it->second.bytes;
    entries_.erase(it);
  }

  std::uint64_t Hits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return hits_;
  }
  std::uint64_t Misses() const {
    std::lock_guard<std::mutex> lock(mu_);
    return misses_;
  }
  /// Entries dropped by the budget, the TTL or a replacing Put.
  std::uint64_t Evictions() const {
    std::lock_guard<std::mutex> lock(mu_);
    return evictions_;
  }
  /// Bytes of the cached entries; <= BudgetBytes() whenever one is set.
  std::size_t ResidentBytes() const {
    std::lock_guard<std::mutex> lock(mu_);
    return resident_bytes_;
  }
  std::size_t BudgetBytes() const { return budget_bytes_; }

 private:
  using Clock = std::chrono::steady_clock;
  struct Entry {
    Handle value;
    std::size_t bytes = 0;
    Clock::time_point last_use;
  };
  using Map = std::map<K, Entry>;

  static bool Pinned(const Entry& entry) {
    return entry.value.use_count() > 1;
  }

  static void EmitEvictInstant(const char* detail) {
    obs::RankTracer* tracer = obs::CurrentTracer();
    if (tracer != nullptr) {
      tracer->EmitInstant(obs::SpanKind::kCacheEvict, detail);
    }
  }

  void EvictLocked(typename Map::iterator it, const char* why) {
    resident_bytes_ -= it->second.bytes;
    ++evictions_;
    EmitEvictInstant(why);
    entries_.erase(it);
  }

  void SweepTtlLocked(Clock::time_point now) {
    if (ttl_ms_ <= 0) return;
    for (auto it = entries_.begin(); it != entries_.end();) {
      auto next = std::next(it);
      const double idle_ms =
          std::chrono::duration<double, std::milli>(now - it->second.last_use)
              .count();
      if (!Pinned(it->second) && idle_ms > ttl_ms_) EvictLocked(it, "ttl");
      it = next;
    }
  }

  /// Evicts LRU unpinned entries until `needed` more bytes fit; false when
  /// they cannot.
  bool MakeRoomLocked(std::size_t needed) {
    if (budget_bytes_ == 0) return true;
    if (needed > budget_bytes_) return false;
    while (resident_bytes_ + needed > budget_bytes_) {
      auto victim = entries_.end();
      for (auto it = entries_.begin(); it != entries_.end(); ++it) {
        if (Pinned(it->second)) continue;
        if (victim == entries_.end() ||
            it->second.last_use < victim->second.last_use) {
          victim = it;
        }
      }
      if (victim == entries_.end()) return false;
      EvictLocked(victim, "budget");
    }
    return true;
  }

  const std::size_t budget_bytes_;
  const double ttl_ms_;
  mutable std::mutex mu_;
  Map entries_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pam::serve

#endif  // PAM_SERVE_BUDGETED_CACHE_H_
