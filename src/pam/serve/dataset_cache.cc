#include "pam/serve/dataset_cache.h"

#include <utility>

namespace pam::serve {

void DatasetCache::Register(const std::string& id, Loader loader) {
  auto registration = std::make_shared<Registration>();
  registration->loader = std::move(loader);
  Install(id, std::move(registration));
}

void DatasetCache::RegisterLoaded(const std::string& id,
                                  TransactionDatabase db) {
  auto registration = std::make_shared<Registration>();
  registration->registered =
      std::make_shared<const TransactionDatabase>(std::move(db));
  Install(id, std::move(registration));
}

void DatasetCache::Install(const std::string& id,
                           std::shared_ptr<Registration> registration) {
  std::lock_guard<std::mutex> lock(mu_);
  registration->generation = ++last_generation_;
  registrations_[id] = std::move(registration);
  loaded_.Erase(id);
}

bool DatasetCache::Contains(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return registrations_.count(id) > 0;
}

std::uint64_t DatasetCache::Generation(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registrations_.find(id);
  return it == registrations_.end() ? 0 : it->second->generation;
}

Result<DatasetHandle> DatasetCache::Get(const std::string& id) {
  std::shared_ptr<Registration> registration;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = registrations_.find(id);
    if (it == registrations_.end()) {
      return Status::Error("unknown dataset '" + id + "'");
    }
    registration = it->second;
  }

  std::lock_guard<std::mutex> load_lock(registration->load_mu);
  if (DatasetHandle hit = loaded_.Get(id)) return hit;

  std::shared_ptr<const TransactionDatabase> db = registration->registered;
  if (db == nullptr) {
    Result<TransactionDatabase> loaded = registration->loader();
    if (!loaded.ok()) return loaded.status();
    db = std::make_shared<const TransactionDatabase>(
        std::move(loaded.value()));
  }

  auto dataset = std::make_shared<CachedDataset>();
  dataset->resident_bytes = db->items().size() * sizeof(Item) +
                            db->offsets().size() * sizeof(std::size_t);
  dataset->generation = registration->generation;
  dataset->db = std::move(db);

  // Only a load of the current registration is cached; one that cannot
  // fit, or that a re-registration superseded, is handed through uncached
  // and dies with the last handle.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = registrations_.find(id);
  if (it != registrations_.end() && it->second == registration) {
    loaded_.Put(id, dataset, dataset->resident_bytes);
  }
  return DatasetHandle(std::move(dataset));
}

}  // namespace pam::serve
