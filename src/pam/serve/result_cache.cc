#include "pam/serve/result_cache.h"

#include <utility>

#include "pam/obs/trace.h"

namespace pam::serve {

namespace {

void EmitEvictInstant(const char* detail) {
  obs::RankTracer* tracer = obs::CurrentTracer();
  if (tracer != nullptr)
    tracer->EmitInstant(obs::SpanKind::kCacheEvict, detail);
}

}  // namespace

std::size_t ReportBytes(const MiningReport& report) {
  std::size_t bytes = sizeof(MiningReport);
  for (const ItemsetCollection& level : report.frequent.levels) {
    bytes += level.ResidentBytes();
  }
  bytes += report.rules.capacity() * sizeof(Rule);
  for (const Rule& rule : report.rules) {
    bytes += (rule.antecedent.capacity() + rule.consequent.capacity()) *
             sizeof(Item);
  }
  for (const auto& pass : report.metrics.per_pass) {
    for (const PassMetrics& m : pass) {
      bytes += sizeof(PassMetrics) + m.shard_subset_work.size() * 8;
    }
  }
  bytes += report.timeline.spans.size() * sizeof(obs::SpanRecord);
  return bytes;
}

ReportHandle ResultCache::Get(const std::string& dataset,
                              std::uint64_t digest) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock(mu_);
  SweepTtlLocked(now);
  auto it = entries_.find(Key(dataset, digest));
  if (it == entries_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  it->second.last_use = now;
  return it->second.report;
}

void ResultCache::Put(const std::string& dataset, std::uint64_t digest,
                      ReportHandle report) {
  Entry entry;
  entry.bytes = ReportBytes(*report);
  entry.report = std::move(report);
  entry.last_use = std::chrono::steady_clock::now();

  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key(dataset, digest));
  if (it != entries_.end()) EvictLocked(it, "replaced");
  if (!MakeRoomLocked(entry.bytes)) return;  // over budget: not cached
  resident_bytes_ += entry.bytes;
  entries_[Key(dataset, digest)] = std::move(entry);
}

void ResultCache::Invalidate(const std::string& dataset) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->first.first == dataset) {
      auto victim = it++;
      EvictLocked(victim, "invalidated");
    } else {
      ++it;
    }
  }
}

void ResultCache::EvictLocked(std::map<Key, Entry>::iterator it,
                              const char* why) {
  resident_bytes_ -= it->second.bytes;
  ++evictions_;
  EmitEvictInstant(why);
  entries_.erase(it);
}

void ResultCache::SweepTtlLocked(
    std::chrono::steady_clock::time_point now) {
  if (ttl_ms_ <= 0) return;
  for (auto it = entries_.begin(); it != entries_.end();) {
    auto next = std::next(it);
    if (it->second.report.use_count() == 1) {  // unpinned
      const double idle_ms = std::chrono::duration<double, std::milli>(
                                 now - it->second.last_use)
                                 .count();
      if (idle_ms > ttl_ms_) EvictLocked(it, "ttl");
    }
    it = next;
  }
}

bool ResultCache::MakeRoomLocked(std::size_t needed) {
  if (budget_bytes_ == 0) return true;
  if (needed > budget_bytes_) return false;  // alone over budget
  while (resident_bytes_ + needed > budget_bytes_) {
    auto victim = entries_.end();
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->second.report.use_count() > 1) continue;  // pinned
      if (victim == entries_.end() ||
          it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == entries_.end()) return false;  // everything pinned
    EvictLocked(victim, "budget");
  }
  return true;
}

std::uint64_t ResultCache::Hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::Misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t ResultCache::Evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t ResultCache::ResidentBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace pam::serve
