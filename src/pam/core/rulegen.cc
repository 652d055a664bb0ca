#include "pam/core/rulegen.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <sstream>

#include "pam/core/apriori_gen.h"

namespace pam {
namespace {

// One rule that met the threshold, before the sort: its two doubles, its
// joint count, and its items in the arena: the antecedent's `ante_size`
// items at `offset`, then the consequent's.
struct RuleRecord {
  double confidence;
  double support;
  Count joint_count;
  std::size_t offset;
  std::uint32_t ante_size;
  std::uint32_t size;
};

// ap-genrules over every source itemset, one instance for the whole call
// so that a source itemset allocates nothing once the buffers have grown:
// antecedents go in one reused buffer, consequents grow level by level in
// two, and each rule that meets the threshold is appended as a RuleRecord.
class RuleBuilder {
 public:
  RuleBuilder(const FrequentItemsets& frequent, std::size_t num_transactions,
              double min_confidence)
      : frequent_(frequent),
        n_(static_cast<double>(num_transactions)),
        min_confidence_(min_confidence) {
    indexes_.reserve(frequent.levels.size());
    for (const ItemsetCollection& level : frequent.levels) {
      indexes_.emplace_back(level);
    }
  }

  void AddRulesFor(ItemSpan full, Count joint) {
    // Consequents of size 1 that clear the confidence bar.
    current_.clear();
    for (const Item& item : full) {
      if (TryRule(full, ItemSpan(&item, 1), joint)) current_.push_back(item);
    }
    // Grow consequents level-wise while the antecedent stays non-empty:
    // moving items from the antecedent to the consequent can only lower
    // confidence, so only surviving consequents are joined.
    for (std::size_t m = 1; current_.size() >= 2 * m && m + 1 < full.size();
         ++m) {
      next_.clear();
      JoinAndPrune(
          current_, static_cast<int>(m), scratch_,
          [&](ItemSpan subset) {
            return FindSorted(current_, subset) != ItemsetCollection::npos;
          },
          [&](ItemSpan consequent) {
            if (TryRule(full, consequent, joint)) {
              next_.insert(next_.end(), consequent.begin(), consequent.end());
            }
          });
      std::swap(current_, next_);
    }
  }

  // Sorts the records into the canonical rule order (descending
  // confidence, then descending support, then lexicographic antecedent and
  // consequent: a total order, since the two sets name the rule) and
  // builds each Rule once, into a vector of exactly the rules' size.
  std::vector<Rule> Take() {
    const auto items = [this](const RuleRecord& r, bool consequent) {
      const Item* first = arena_.data() + r.offset;
      return consequent ? ItemSpan(first + r.ante_size, r.size - r.ante_size)
                        : ItemSpan(first, r.ante_size);
    };
    const auto before = [&](const RuleRecord& a, const RuleRecord& b) {
      if (a.confidence != b.confidence) return a.confidence > b.confidence;
      if (a.support != b.support) return a.support > b.support;
      const int c = CompareItemsets(items(a, false), items(b, false));
      if (c != 0) return c < 0;
      return CompareItemsets(items(a, true), items(b, true)) < 0;
    };
    std::sort(records_.begin(), records_.end(), before);
    std::vector<Rule> rules;
    rules.reserve(records_.size());
    for (const RuleRecord& r : records_) {
      const ItemSpan ante = items(r, false);
      const ItemSpan cons = items(r, true);
      rules.push_back(Rule{std::vector<Item>(ante.begin(), ante.end()),
                           std::vector<Item>(cons.begin(), cons.end()),
                           r.joint_count, r.support, r.confidence});
    }
    return rules;
  }

 private:
  // Records full \ consequent => consequent if its antecedent is frequent
  // and the rule meets the threshold; returns whether it did.
  bool TryRule(ItemSpan full, ItemSpan consequent, Count joint) {
    antecedent_.clear();
    std::set_difference(full.begin(), full.end(), consequent.begin(),
                        consequent.end(), std::back_inserter(antecedent_));
    // Levels are indexed by size, as FrequentItemsets::Lookup reads them.
    const std::size_t level = antecedent_.size() - 1;
    if (level >= indexes_.size()) return false;
    const std::size_t pos = indexes_[level].Find(antecedent_);
    if (pos == ItemsetCollection::npos) return false;
    const Count ante_count = frequent_.levels[level].count(pos);
    if (ante_count == 0) return false;
    const double conf =
        static_cast<double>(joint) / static_cast<double>(ante_count);
    if (!(conf >= min_confidence_)) return false;
    records_.push_back(
        RuleRecord{conf, static_cast<double>(joint) / n_, joint,
                   arena_.size(),
                   static_cast<std::uint32_t>(antecedent_.size()),
                   static_cast<std::uint32_t>(full.size())});
    arena_.insert(arena_.end(), antecedent_.begin(), antecedent_.end());
    arena_.insert(arena_.end(), consequent.begin(), consequent.end());
    return true;
  }

  const FrequentItemsets& frequent_;
  const double n_;
  const double min_confidence_;
  std::vector<ItemsetIndex> indexes_;  // one per antecedent size
  std::vector<Item> antecedent_;
  std::vector<Item> current_;  // surviving consequents, flat and sorted
  std::vector<Item> next_;
  std::vector<Item> scratch_;  // JoinAndPrune's
  std::vector<RuleRecord> records_;
  std::vector<Item> arena_;
};

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
  RuleBuilder builder(frequent, num_transactions, min_confidence);
  for (std::size_t level = 1; level < frequent.levels.size(); ++level) {
    const ItemsetCollection& sets = frequent.levels[level];
    for (std::size_t s = 0; s < sets.size(); ++s) {
      builder.AddRulesFor(sets.Get(s), sets.count(s));
    }
  }
  // A cached report pins its rules for its whole life; Take reserves them
  // exactly, so there is no growth slack to release.
  return builder.Take();
}

}  // namespace pam
