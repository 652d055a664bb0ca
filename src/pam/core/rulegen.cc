#include "pam/core/rulegen.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "pam/core/apriori_gen.h"

namespace pam {
namespace {

// Sorted set difference: full \ part (part must be a subset of full).
std::vector<Item> Difference(ItemSpan full, ItemSpan part) {
  std::vector<Item> out;
  out.reserve(full.size() - part.size());
  std::set_difference(full.begin(), full.end(), part.begin(), part.end(),
                      std::back_inserter(out));
  return out;
}

// Canonical rule order: descending confidence, then descending support,
// then lexicographic.
void SortRules(std::vector<Rule>& rules) {
  std::sort(rules.begin(), rules.end(), [](const Rule& a, const Rule& b) {
    if (a.confidence != b.confidence) return a.confidence > b.confidence;
    if (a.support != b.support) return a.support > b.support;
    if (a.antecedent != b.antecedent) return a.antecedent < b.antecedent;
    return a.consequent < b.consequent;
  });
}

// Appends every rule derivable from frequent itemset `index` of
// `levels[level]`: ap-genrules for one source itemset.
void RulesForItemset(const FrequentItemsets& frequent, std::size_t level,
                     std::size_t index, std::size_t num_transactions,
                     double min_confidence, std::vector<Rule>* rules) {
  const ItemsetCollection& sets = frequent.levels[level];
  const double n = static_cast<double>(num_transactions);
  ItemSpan full = sets.Get(index);
  const Count joint = sets.count(index);

  // Consequents of size 1 that clear the confidence bar.
  ItemsetCollection consequents(1);
  for (Item item : full) {
    std::vector<Item> antecedent = Difference(full, ItemSpan(&item, 1));
    Count ante_count = 0;
    const bool found = frequent.Lookup(
        ItemSpan(antecedent.data(), antecedent.size()), &ante_count);
    assert(found && "antecedent of a frequent set must be frequent");
    if (!found || ante_count == 0) continue;
    const double conf =
        static_cast<double>(joint) / static_cast<double>(ante_count);
    if (conf >= min_confidence) {
      rules->push_back(Rule{std::move(antecedent),
                            {item},
                            joint,
                            static_cast<double>(joint) / n,
                            conf});
      consequents.AddWithCount(ItemSpan(&item, 1), 0);
    }
  }

  // Grow consequents level-wise while the antecedent stays non-empty.
  while (consequents.size() >= 2 &&
         static_cast<std::size_t>(consequents.k()) + 1 < full.size()) {
    ItemsetCollection next = AprioriGen(consequents);
    ItemsetCollection surviving(next.k());
    for (std::size_t c = 0; c < next.size(); ++c) {
      ItemSpan consequent = next.Get(c);
      std::vector<Item> antecedent = Difference(full, consequent);
      Count ante_count = 0;
      if (!frequent.Lookup(ItemSpan(antecedent.data(), antecedent.size()),
                           &ante_count) ||
          ante_count == 0) {
        continue;
      }
      const double conf =
          static_cast<double>(joint) / static_cast<double>(ante_count);
      if (conf >= min_confidence) {
        rules->push_back(
            Rule{std::move(antecedent),
                 std::vector<Item>(consequent.begin(), consequent.end()),
                 joint,
                 static_cast<double>(joint) / n,
                 conf});
        surviving.AddWithCount(consequent, 0);
      }
    }
    consequents = std::move(surviving);
  }
}

}  // namespace

std::string Rule::ToString() const {
  std::ostringstream os;
  os << '{';
  for (std::size_t i = 0; i < antecedent.size(); ++i) {
    if (i) os << ' ';
    os << antecedent[i];
  }
  os << "} => {";
  for (std::size_t i = 0; i < consequent.size(); ++i) {
    if (i) os << ' ';
    os << consequent[i];
  }
  os << "} (sup " << support << ", conf " << confidence << ')';
  return os.str();
}

std::vector<Rule> GenerateRules(const FrequentItemsets& frequent,
                                std::size_t num_transactions,
                                double min_confidence) {
  std::vector<Rule> rules;
  for (std::size_t level = 1; level < frequent.levels.size(); ++level) {
    for (std::size_t s = 0; s < frequent.levels[level].size(); ++s) {
      RulesForItemset(frequent, level, s, num_transactions, min_confidence,
                      &rules);
    }
  }
  SortRules(rules);
  // A cached report pins its rules for its whole life, so release
  // push_back's growth slack before returning.
  rules.shrink_to_fit();
  return rules;
}

}  // namespace pam
