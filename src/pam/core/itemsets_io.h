#ifndef PAM_CORE_ITEMSETS_IO_H_
#define PAM_CORE_ITEMSETS_IO_H_

#include <string>

#include "pam/core/serial_apriori.h"
#include "pam/util/status.h"

namespace pam {

/// Persists mined frequent itemsets (pam_mine --save-itemsets), so two
/// runs' outputs can be compared byte for byte. Binary format: magic,
/// number of levels, then each level's ItemsetCollection serialization.
Status WriteFrequentItemsets(const FrequentItemsets& frequent,
                             const std::string& path);

/// Reads a file written by WriteFrequentItemsets, validating the magic
/// and structural invariants (level k at position k-1, sorted-unique
/// collections).
Result<FrequentItemsets> ReadFrequentItemsets(const std::string& path);

}  // namespace pam

#endif  // PAM_CORE_ITEMSETS_IO_H_
