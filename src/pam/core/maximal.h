#ifndef PAM_CORE_MAXIMAL_H_
#define PAM_CORE_MAXIMAL_H_

#include <vector>

#include "pam/core/serial_apriori.h"

namespace pam {

/// Extracts the *maximal* frequent itemsets: frequent itemsets with no
/// frequent superset. The union of all frequent itemsets is exactly the
/// downward closure of this set, so it is the most compact lossless
/// summary of which itemsets are frequent (the paper's synthetic
/// generator is parameterized by the "maximal potentially frequent
/// itemsets" for the same reason). Result is grouped by size like the
/// input, counts preserved. Each (k+1)-set marks its k-subsets through an
/// ItemsetIndex over F_k, so the cost is linear in the input; no level may
/// hold an itemset twice.
FrequentItemsets ExtractMaximal(const FrequentItemsets& frequent);

}  // namespace pam

#endif  // PAM_CORE_MAXIMAL_H_
