#include "pam/serve/result_cache.h"

namespace pam::serve {

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

std::size_t ResultBytes(const CachedResult& result) {
  return ReportBytes(result.report) + result.payload.size();
}

}  // namespace pam::serve
