// Output checks of the benchmark: exact comparison of two mining results,
// a content digest pinned for the named seeds, and an independent oracle
// that recounts every reported itemset and its negative border straight
// from the transactions, so a fault shared by every miner still fails.
#ifndef E2EBENCH_HARNESS_CHECK_H_
#define E2EBENCH_HARNESS_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "pam/core/rulegen.h"
#include "pam/core/serial_apriori.h"
#include "pam/tdb/database.h"

namespace e2e {

/// Same levels, same itemsets in the same order, same support counts.
bool SameFrequent(const pam::FrequentItemsets& a,
                  const pam::FrequentItemsets& b);

/// Same rules in the same order, field for field.
bool SameRules(const std::vector<pam::Rule>& a,
               const std::vector<pam::Rule>& b);

/// FNV-1a over every itemset with its count and every rule.
std::uint64_t ResultDigest(const pam::FrequentItemsets& frequent,
                           const std::vector<pam::Rule>& rules);

/// Recounts the result from `db` with code that shares nothing with the
/// miners: item counts, a dense pair matrix, and blocked bitset
/// intersections for k >= 3 over candidates joined here. Checks that
/// every level holds exactly the itemsets whose support reaches
/// `minsup`, with their supports, and (when `rules` is non-null) that
/// the rules are exactly those of confidence >= `min_confidence`.
/// Returns an empty string on success, else what differed.
std::string VerifyWithOracle(const pam::TransactionDatabase& db,
                             pam::Count minsup,
                             const pam::FrequentItemsets& frequent,
                             const std::vector<pam::Rule>* rules,
                             double min_confidence);

/// Deliberately corrupts a result (bumps one support count) for the
/// self-test of the checks.
void Tamper(pam::FrequentItemsets* frequent);

}  // namespace e2e

#endif  // E2EBENCH_HARNESS_CHECK_H_
