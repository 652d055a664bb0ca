#ifndef PAM_SERVE_DATASET_CACHE_H_
#define PAM_SERVE_DATASET_CACHE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pam/tdb/database.h"
#include "pam/util/status.h"

namespace pam::serve {

/// One resident dataset: the CSR database every request mines over, built
/// exactly once per load. Every concurrent request over the dataset shares
/// the one copy through the handle's refcount, so a cache hit moves zero
/// bytes, which the serve suite pins with a BufferPool::CopyCount guard.
struct CachedDataset {
  std::string id;
  std::shared_ptr<const TransactionDatabase> db;
  /// Bytes the CSR holds: 4 per item plus 8 per offset. The cache budget
  /// counts this.
  std::size_t resident_bytes = 0;

  std::size_t num_transactions() const { return db == nullptr ? 0 : db->size(); }
};

/// Shared handle to a cached dataset. Requests hold one for the duration
/// of their run, so eviction/replacement can never pull a database out
/// from under an in-flight miner — eviction only drops the cache's own
/// reference; the database dies when the last in-flight handle does.
using DatasetHandle = std::shared_ptr<const CachedDataset>;

/// Keyed, lazily-loading dataset cache of the mining server. Datasets are
/// registered up front (by id) with either a loader or an already-decoded
/// database; the first Get() runs the loader, whose CSR becomes the entry,
/// and every later Get() of the same id is a refcount bump.
///
/// Keying is by caller-chosen id, not by content: two ids backed by the
/// same file are two entries (the server's datasets are a small static
/// catalog, so identity-by-name is the honest contract; see DESIGN.md
/// §12 "cache keying").
///
/// Graceful degradation (DESIGN.md §13): with a nonzero `budget_bytes`
/// the cache never keeps more than that many resident CSR bytes. Before
/// caching a fresh load it evicts least-recently-used unpinned entries
/// (pinned = some request still holds the handle; use_count > 1) until
/// the newcomer fits; if it cannot fit — the dataset alone exceeds the
/// budget, or everything resident is pinned — the load is handed through
/// *uncached*, so requests still succeed, just without sharing. A nonzero
/// `ttl_ms` additionally drops unpinned entries idle longer than the TTL
/// (swept opportunistically on Get). ResidentBytes() therefore never
/// exceeds budget_bytes when one is set.
///
/// Thread-safe. Concurrent first Gets of one id serialize on the entry,
/// not the whole cache, so loading a cold dataset never blocks hits on a
/// hot one.
class DatasetCache {
 public:
  using Loader = std::function<Result<TransactionDatabase>()>;

  /// `budget_bytes` caps resident CSR bytes (0 = unlimited); `ttl_ms`
  /// drops entries idle longer than this (0 = never).
  explicit DatasetCache(std::size_t budget_bytes = 0, double ttl_ms = 0)
      : budget_bytes_(budget_bytes), ttl_ms_(ttl_ms) {}

  /// Registers dataset `id`, loaded lazily by `loader` on first Get.
  /// Re-registering an id replaces its loader and drops any loaded entry
  /// (outstanding handles stay valid — they own the old copy).
  void Register(const std::string& id, Loader loader);

  /// Registers an already-decoded database under `id`. The entry keeps
  /// this one copy for as long as the id stays registered, and every load
  /// hands it out as is: no loader runs and nothing is copied. The budget
  /// counts it while it is cached.
  void RegisterLoaded(const std::string& id, TransactionDatabase db);

  /// True if `id` has been registered (loaded or not).
  bool Contains(const std::string& id) const;

  /// The cached dataset, loading it on first use. Fails for an
  /// unregistered id, or with the loader's error (the failure is not
  /// cached: a later Get retries the loader).
  Result<DatasetHandle> Get(const std::string& id);

  /// Gets satisfied by an already-loaded entry / requiring a load.
  std::uint64_t Hits() const;
  std::uint64_t Misses() const;
  /// Entries dropped from residency by the budget or the TTL.
  std::uint64_t Evictions() const;
  /// Total CSR bytes resident across loaded entries; <= budget_bytes
  /// whenever a budget is set.
  std::size_t ResidentBytes() const;
  std::size_t BudgetBytes() const { return budget_bytes_; }

 private:
  struct Entry {
    /// Serializes the expensive load of this entry only; never held while
    /// touching cache-wide state. `loaded` and `last_use` live under the
    /// cache-wide mu_ (they are cheap shared_ptr / time_point ops), which
    /// is what lets eviction scan entries without taking every load_mu.
    std::mutex load_mu;
    /// How a load gets the database: the loader, or, for RegisterLoaded,
    /// the registered database itself. Both are fixed at registration.
    Loader loader;
    std::shared_ptr<const TransactionDatabase> registered;
    DatasetHandle loaded;
    std::chrono::steady_clock::time_point last_use{};
  };

  /// Puts `entry` under `id`, dropping any entry registered before.
  void Install(const std::string& id, std::shared_ptr<Entry> entry);
  /// Drops `entry`'s resident dataset (caller holds mu_).
  void EvictLocked(const std::string& id, Entry& entry, const char* why);
  /// Applies the TTL to every unpinned resident entry (caller holds mu_).
  void SweepTtlLocked(std::chrono::steady_clock::time_point now);
  /// Evicts LRU unpinned entries until `needed` more bytes fit the
  /// budget; returns false when they cannot (caller holds mu_).
  bool MakeRoomLocked(std::size_t needed);

  const std::size_t budget_bytes_;
  const double ttl_ms_;
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
  std::size_t resident_bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace pam::serve

#endif  // PAM_SERVE_DATASET_CACHE_H_
