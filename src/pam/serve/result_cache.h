#ifndef PAM_SERVE_RESULT_CACHE_H_
#define PAM_SERVE_RESULT_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "pam/api/session.h"
#include "pam/serve/budgeted_cache.h"

namespace pam::serve {

/// A finished mining report, shared read-only by the result cache and by
/// every response that carries it, so a hit copies nothing. Holding one
/// pins the report's cache entry.
using ReportHandle = std::shared_ptr<const MiningReport>;

/// An encoded kResponse payload (protocol.h: minsup count, levels and
/// rules), shared read-only like the report it encodes. A cached one pins
/// its entry too.
using PayloadHandle = std::shared_ptr<const std::vector<std::byte>>;

/// (DatasetCache::Generation of the mined dataset,
/// MiningRequest::CanonicalDigest()). Keying on the registration rather
/// than the dataset's name means a re-registered dataset never answers
/// from its predecessor's results.
using ResultKey = std::pair<std::uint64_t, std::uint64_t>;

/// One result-cache entry: a mined report and its kResponse payload, which
/// the worker encodes once, when it publishes the report. Responses hand
/// out aliasing handles into the entry (ReportHandle, PayloadHandle), so
/// either one pins it, and every hit sends the same payload bytes.
struct CachedResult {
  MiningReport report;
  std::vector<std::byte> payload;
};

/// Cache of finished MiningReports — the serving-side complement of the
/// DatasetCache (which shares inputs; this shares outputs). Mining output
/// depends only on the database and the result-affecting config (never on
/// the formulation, rank count, or scheduling), so a report cached from
/// any run answers every equivalent later request, byte-identical to
/// re-mining per the library's exactness contract. An entry is charged
/// ResultBytes, the report and its payload together; one that cannot fit
/// the budget is simply not cached.
using ResultCache = BudgetedCache<ResultKey, CachedResult>;

/// Approximate resident bytes of a report (itemset and rule storage with
/// the capacity it pins, plus metrics and timeline).
std::size_t ReportBytes(const MiningReport& report);

/// The ResultCache budget unit: ReportBytes plus the payload's bytes.
std::size_t ResultBytes(const CachedResult& result);

}  // namespace pam::serve

#endif  // PAM_SERVE_RESULT_CACHE_H_
