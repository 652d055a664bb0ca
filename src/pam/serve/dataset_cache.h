#ifndef PAM_SERVE_DATASET_CACHE_H_
#define PAM_SERVE_DATASET_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "pam/serve/budgeted_cache.h"
#include "pam/tdb/database.h"
#include "pam/util/status.h"

namespace pam::serve {

/// One resident dataset: the CSR database every request mines over, built
/// exactly once per load. Every concurrent request over the dataset shares
/// the one copy through the handle's refcount, so a cache hit moves zero
/// bytes, which the serve suite pins with a Payload::CopyCount guard.
struct CachedDataset {
  std::shared_ptr<const TransactionDatabase> db;
  /// Bytes the CSR holds: 4 per item plus 8 per offset. The cache budget
  /// counts this.
  std::size_t resident_bytes = 0;
  /// The registration this dataset was loaded from
  /// (DatasetCache::Generation); results mined from it are keyed on it.
  std::uint64_t generation = 0;
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
/// §12 "cache keying"). Each registration of an id gets its own
/// generation, which is what derived results are keyed on.
///
/// Graceful degradation (DESIGN.md §13): loaded datasets live in a
/// BudgetedCache, so with a nonzero `budget_bytes` a fresh load evicts
/// least-recently-used unpinned datasets until it fits. A load that cannot
/// fit — alone over budget, or everything resident pinned — is handed
/// through *uncached*: the request still succeeds, just without sharing.
///
/// Thread-safe. Loads serialize per registration, not on the whole cache,
/// so loading a cold dataset never blocks hits on a hot one.
class DatasetCache {
 public:
  using Loader = std::function<Result<TransactionDatabase>()>;

  /// `budget_bytes` caps resident CSR bytes (0 = unlimited).
  explicit DatasetCache(std::size_t budget_bytes = 0) : loaded_(budget_bytes) {}

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

  /// The current registration of `id`: distinct for every Register and
  /// RegisterLoaded call, 0 for an id never registered.
  std::uint64_t Generation(const std::string& id) const;

  /// The cached dataset, loading it on first use. Fails for an
  /// unregistered id, or with the loader's error (the failure is not
  /// cached: a later Get retries the loader). Every Get of a registered id
  /// counts one hit or one miss.
  Result<DatasetHandle> Get(const std::string& id);

  /// Gets satisfied by an already-loaded entry / requiring a load.
  std::uint64_t Hits() const { return loaded_.Hits(); }
  std::uint64_t Misses() const { return loaded_.Misses(); }
  /// Datasets dropped from residency by the budget.
  std::uint64_t Evictions() const { return loaded_.Evictions(); }
  /// Total CSR bytes resident across loaded entries; <= budget_bytes
  /// whenever a budget is set.
  std::size_t ResidentBytes() const { return loaded_.ResidentBytes(); }
  std::size_t BudgetBytes() const { return loaded_.BudgetBytes(); }

 private:
  struct Registration {
    std::uint64_t generation = 0;
    /// How a load gets the database: the loader, or, for RegisterLoaded,
    /// the registered database itself.
    Loader loader;
    std::shared_ptr<const TransactionDatabase> registered;
    /// Serializes this registration's loads and the lookup before each, so
    /// a Get that waited out another's load finds its entry.
    std::mutex load_mu;
  };

  /// Puts `registration` under `id`, dropping the entry loaded before.
  void Install(const std::string& id,
               std::shared_ptr<Registration> registration);

  /// Guards the registrations, and makes a load's "still current" check
  /// and its Put atomic with respect to Install's erase.
  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Registration>> registrations_;
  std::uint64_t last_generation_ = 0;
  BudgetedCache<std::string, CachedDataset> loaded_;
};

}  // namespace pam::serve

#endif  // PAM_SERVE_DATASET_CACHE_H_
