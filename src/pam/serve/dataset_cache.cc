#include "pam/serve/dataset_cache.h"

#include <utility>

#include "pam/obs/trace.h"

namespace pam::serve {

namespace {

void EmitCacheInstant(const char* detail) {
  obs::RankTracer* tracer = obs::CurrentTracer();
  if (tracer != nullptr) tracer->EmitInstant(obs::SpanKind::kCacheEvict, detail);
}

}  // namespace

void DatasetCache::Register(const std::string& id, Loader loader) {
  auto entry = std::make_shared<Entry>();
  entry->loader = std::move(loader);
  Install(id, std::move(entry));
}

void DatasetCache::RegisterLoaded(const std::string& id,
                                  TransactionDatabase db) {
  auto entry = std::make_shared<Entry>();
  entry->registered =
      std::make_shared<const TransactionDatabase>(std::move(db));
  Install(id, std::move(entry));
}

void DatasetCache::Install(const std::string& id,
                           std::shared_ptr<Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(id);
  if (it != entries_.end() && it->second->loaded != nullptr) {
    // Replacement drops the old resident copy (handles keep it alive).
    resident_bytes_ -= it->second->loaded->resident_bytes;
  }
  entries_[id] = std::move(entry);
}

bool DatasetCache::Contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.count(id) > 0;
}

void DatasetCache::EvictLocked(const std::string& id, Entry& entry,
                               const char* why) {
  (void)id;
  resident_bytes_ -= entry.loaded->resident_bytes;
  entry.loaded.reset();
  ++evictions_;
  EmitCacheInstant(why);
}

void DatasetCache::SweepTtlLocked(
    std::chrono::steady_clock::time_point now) {
  if (ttl_ms_ <= 0) return;
  for (auto& [id, entry] : entries_) {
    if (entry->loaded == nullptr) continue;
    if (entry->loaded.use_count() > 1) continue;  // pinned by a request
    const double idle_ms =
        std::chrono::duration<double, std::milli>(now - entry->last_use)
            .count();
    if (idle_ms > ttl_ms_) EvictLocked(id, *entry, "ttl");
  }
}

bool DatasetCache::MakeRoomLocked(std::size_t needed) {
  if (budget_bytes_ == 0) return true;
  if (needed > budget_bytes_) return false;  // alone over budget
  while (resident_bytes_ + needed > budget_bytes_) {
    // LRU victim: the unpinned resident entry idle the longest.
    Entry* victim = nullptr;
    const std::string* victim_id = nullptr;
    for (auto& [id, entry] : entries_) {
      if (entry->loaded == nullptr) continue;
      if (entry->loaded.use_count() > 1) continue;  // pinned
      if (victim == nullptr || entry->last_use < victim->last_use) {
        victim = entry.get();
        victim_id = &id;
      }
    }
    if (victim == nullptr) return false;  // everything resident is pinned
    EvictLocked(*victim_id, *victim, "budget");
  }
  return true;
}

Result<DatasetHandle> DatasetCache::Get(const std::string& id) {
  const auto now = std::chrono::steady_clock::now();
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    SweepTtlLocked(now);
    auto it = entries_.find(id);
    if (it == entries_.end()) {
      return Result<DatasetHandle>(
          Status::Error("unknown dataset '" + id + "'"));
    }
    entry = it->second;
    if (entry->loaded != nullptr) {
      ++hits_;
      entry->last_use = now;
      return Result<DatasetHandle>(DatasetHandle(entry->loaded));
    }
  }

  // Cold: serialize the load on this entry only, then re-check — another
  // worker may have finished the same load while we waited for load_mu.
  std::lock_guard<std::mutex> load_lock(entry->load_mu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entry->loaded != nullptr) {
      ++hits_;
      entry->last_use = now;
      return Result<DatasetHandle>(DatasetHandle(entry->loaded));
    }
  }

  std::shared_ptr<const TransactionDatabase> db = entry->registered;
  if (db == nullptr) {
    Result<TransactionDatabase> loaded = entry->loader();
    if (!loaded.ok()) return Result<DatasetHandle>(loaded.status());
    db = std::make_shared<const TransactionDatabase>(
        std::move(loaded.value()));
  }

  auto dataset = std::make_shared<CachedDataset>();
  dataset->id = id;
  dataset->resident_bytes = db->items().size() * sizeof(Item) +
                            db->offsets().size() * sizeof(std::size_t);
  dataset->db = std::move(db);

  std::lock_guard<std::mutex> lock(mu_);
  ++misses_;
  auto it = entries_.find(id);
  const bool current = it != entries_.end() && it->second == entry;
  if (current && MakeRoomLocked(dataset->resident_bytes)) {
    entry->loaded = dataset;
    entry->last_use = now;
    resident_bytes_ += dataset->resident_bytes;
  } else {
    // Load-through: the request gets its dataset, the cache keeps no
    // reference, and the budget is never exceeded. The bytes die with the
    // last handle.
    EmitCacheInstant("uncacheable");
  }
  return Result<DatasetHandle>(DatasetHandle(std::move(dataset)));
}

std::uint64_t DatasetCache::Hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t DatasetCache::Misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t DatasetCache::Evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t DatasetCache::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace pam::serve
