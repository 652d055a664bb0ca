#ifndef PAM_SERVE_RESULT_CACHE_H_
#define PAM_SERVE_RESULT_CACHE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "pam/api/session.h"

namespace pam::serve {

/// A finished mining report, shared read-only by the result cache and by
/// every response that carries it, so a hit copies nothing. Holding one
/// pins the report's cache entry.
using ReportHandle = std::shared_ptr<const MiningReport>;

/// LRU/TTL/budget cache of finished MiningReports, keyed on
/// (dataset id, MiningRequest::CanonicalDigest()) — the serving-side
/// complement of the DatasetCache (which shares inputs; this shares
/// outputs). Identical requests are common in serving mixes and results
/// over a registered dataset are immutable, so a hit skips the dataset
/// touch and the rank lease entirely. Mining output depends only on the
/// dataset and the result-affecting config (never on the formulation,
/// rank count, or scheduling), so a report cached from any run answers
/// every equivalent later request — byte-identical to re-mining, per the
/// library's exactness contract.
///
/// Entries hold the mined reports themselves (no loaders, no copies):
/// Put() is called by a worker that just finished mining, with the same
/// handle its response carries, and Get() by a worker about to mine. The
/// same degradation rules as the dataset cache apply: over budget, LRU
/// unpinned entries are evicted first, and a report that alone exceeds
/// the budget is simply not cached. Handles pin entries (use_count > 1),
/// so eviction never frees a report mid-reply.
///
/// Thread-safe.
class ResultCache {
 public:
  /// `budget_bytes` caps resident report bytes (0 = unlimited); `ttl_ms`
  /// drops entries idle longer than this (0 = never).
  explicit ResultCache(std::size_t budget_bytes = 0, double ttl_ms = 0)
      : budget_bytes_(budget_bytes), ttl_ms_(ttl_ms) {}

  /// The cached report for (dataset, digest), or nullptr on a miss.
  ReportHandle Get(const std::string& dataset, std::uint64_t digest);

  /// Caches `report` under (dataset, digest). Overwrites any existing
  /// entry (idempotent for concurrent identical runs). A report that
  /// cannot fit the budget even after evicting every unpinned entry is
  /// dropped silently — the response it came from is unaffected.
  void Put(const std::string& dataset, std::uint64_t digest,
           ReportHandle report);

  /// Drops every entry whose dataset id is `dataset` (dataset
  /// re-registration invalidates derived results).
  void Invalidate(const std::string& dataset);

  std::uint64_t Hits() const;
  std::uint64_t Misses() const;
  std::uint64_t Evictions() const;
  std::size_t ResidentBytes() const;
  std::size_t BudgetBytes() const { return budget_bytes_; }

 private:
  using Key = std::pair<std::string, std::uint64_t>;
  struct Entry {
    ReportHandle report;
    /// ReportBytes(*report), the budget accounting unit.
    std::size_t bytes = 0;
    std::chrono::steady_clock::time_point last_use{};
  };

  void EvictLocked(std::map<Key, Entry>::iterator it, const char* why);
  void SweepTtlLocked(std::chrono::steady_clock::time_point now);
  bool MakeRoomLocked(std::size_t needed);

  const std::size_t budget_bytes_;
  const double ttl_ms_;
  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

/// Approximate resident bytes of a report (itemset and rule storage with
/// the capacity it pins, plus metrics and timeline) — the ResultCache
/// budget unit.
std::size_t ReportBytes(const MiningReport& report);

}  // namespace pam::serve

#endif  // PAM_SERVE_RESULT_CACHE_H_
