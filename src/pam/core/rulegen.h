#ifndef PAM_CORE_RULEGEN_H_
#define PAM_CORE_RULEGEN_H_

#include <string>
#include <vector>

#include "pam/core/serial_apriori.h"
#include "pam/util/types.h"

namespace pam {

/// An association rule X => Y with X, Y disjoint non-empty itemsets
/// (paper Section II). `support` is sigma(X u Y) / |T| and `confidence`
/// is sigma(X u Y) / sigma(X).
struct Rule {
  std::vector<Item> antecedent;  // X, sorted
  std::vector<Item> consequent;  // Y, sorted
  Count joint_count = 0;         // sigma(X u Y)
  double support = 0.0;
  double confidence = 0.0;

  /// "[1 2] => [3] (sup 0.40, conf 0.66)" style rendering for examples.
  std::string ToString() const;
};

/// Generates every association rule meeting `min_confidence` from the
/// frequent itemsets, using the ap-genrules strategy: consequents of a
/// frequent itemset are grown level-wise (through apriori_gen's join and
/// prune, JoinAndPrune, over the current consequents) and a consequent is
/// abandoned as soon as its rule falls below the confidence threshold —
/// valid because moving items from the antecedent to the consequent can
/// only lower confidence. Antecedent supports are read through one
/// ItemsetIndex per level.
///
/// `num_transactions` converts counts into relative support. Rules are
/// returned sorted by descending confidence, then descending support, then
/// lexicographically by antecedent and consequent, in a vector with no
/// spare capacity.
std::vector<Rule> GenerateRules(const FrequentItemsets& frequent,
                                std::size_t num_transactions,
                                double min_confidence);

}  // namespace pam

#endif  // PAM_CORE_RULEGEN_H_
