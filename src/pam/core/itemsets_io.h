#ifndef PAM_CORE_ITEMSETS_IO_H_
#define PAM_CORE_ITEMSETS_IO_H_

#include <cstdint>
#include <string>

#include "pam/core/serial_apriori.h"
#include "pam/util/status.h"

namespace pam {

/// First word of a WriteFrequentItemsets file ("PAMFI01F").
inline constexpr std::uint64_t kFrequentItemsetsMagic = 0x50414d4649303146ULL;

/// Persists mined frequent itemsets (pam_mine --save-itemsets), so two
/// runs' outputs can be compared byte for byte. Binary format: magic,
/// number of levels, then each level's ItemsetCollection serialization,
/// each a u64 word count followed by the words.
Status WriteFrequentItemsets(const FrequentItemsets& frequent,
                             const std::string& path);

}  // namespace pam

#endif  // PAM_CORE_ITEMSETS_IO_H_
