#include "harness/check.h"

#include <algorithm>
#include <bit>
#include <map>
#include <set>
#include <sstream>
#include <tuple>

namespace e2e {
namespace {

using pam::Count;
using pam::FrequentItemsets;
using pam::Item;
using pam::ItemsetCollection;
using pam::ItemSpan;
using pam::Rule;
using pam::TransactionDatabase;

using Itemset = std::vector<Item>;
using Level = std::vector<std::pair<Itemset, Count>>;  // sorted by itemset

Level ToLevel(const ItemsetCollection& c) {
  Level level;
  level.reserve(c.size());
  for (std::size_t i = 0; i < c.size(); ++i) {
    const ItemSpan s = c.Get(i);
    level.push_back({Itemset(s.begin(), s.end()), c.count(i)});
  }
  return level;
}

template <typename... Parts>
std::string Cat(const Parts&... parts) {
  std::ostringstream out;
  (out << ... << parts);
  return out.str();
}

std::string Describe(const Itemset& items) {
  std::ostringstream out;
  out << '{';
  for (std::size_t i = 0; i < items.size(); ++i) {
    out << (i ? " " : "") << items[i];
  }
  out << '}';
  return out.str();
}

// Compares the program's level with the oracle's; empty string if equal.
std::string CompareLevel(std::size_t k, const Level& want,
                         const FrequentItemsets& got) {
  const Level have = k <= got.levels.size()
                         ? ToLevel(got.levels[k - 1])
                         : Level{};
  if (have == want) return "";
  std::map<Itemset, Count> a(want.begin(), want.end());
  std::map<Itemset, Count> b(have.begin(), have.end());
  for (const auto& [items, count] : a) {
    auto it = b.find(items);
    if (it == b.end()) {
      return Cat("level ", k, ": missing frequent itemset ", Describe(items));
    }
    if (it->second != count) {
      return Cat("level ", k, ": support of ", Describe(items), " is ",
                 it->second, ", recount gives ", count);
    }
  }
  for (const auto& [items, count] : b) {
    if (!a.count(items)) {
      return Cat("level ", k, ": itemset ", Describe(items),
                 " reported frequent, recount gives less than minsup");
    }
  }
  return Cat("level ", k, ": itemsets out of order");
}

// Candidates of size k from the frequent (k-1)-itemsets: join on the
// first k-2 items, keep those whose every (k-1)-subset is frequent.
std::vector<Itemset> JoinAndPrune(const Level& prev) {
  std::set<Itemset> known;
  for (const auto& entry : prev) known.insert(entry.first);
  std::vector<Itemset> out;
  for (std::size_t i = 0; i < prev.size(); ++i) {
    const Itemset& a = prev[i].first;
    for (std::size_t j = i + 1; j < prev.size(); ++j) {
      const Itemset& b = prev[j].first;
      if (!std::equal(a.begin(), a.end() - 1, b.begin())) break;
      Itemset cand = a;
      cand.push_back(b.back());
      bool all_frequent = true;
      for (std::size_t drop = 0; drop + 2 < cand.size() && all_frequent;
           ++drop) {
        Itemset sub;
        for (std::size_t x = 0; x < cand.size(); ++x) {
          if (x != drop) sub.push_back(cand[x]);
        }
        all_frequent = known.count(sub) > 0;
      }
      if (all_frequent) out.push_back(std::move(cand));
    }
  }
  return out;
}

// Supports of `cands` by bitset intersection, one block of transactions
// at a time so memory stays at (distinct items) x (block / 8) bytes.
std::vector<Count> CountByBitsets(const TransactionDatabase& db,
                                  const std::vector<Itemset>& cands) {
  constexpr std::size_t kBlock = 1 << 16;
  constexpr std::size_t kWords = kBlock / 64;
  std::map<Item, std::size_t> slot;
  for (const Itemset& c : cands) {
    for (Item it : c) slot.emplace(it, 0);
  }
  std::size_t next = 0;
  for (auto& [item, s] : slot) s = next++;
  std::vector<std::vector<std::size_t>> cand_slots;
  for (const Itemset& c : cands) {
    std::vector<std::size_t> slots;
    for (Item it : c) slots.push_back(slot.at(it));
    cand_slots.push_back(std::move(slots));
  }
  std::vector<Count> counts(cands.size(), 0);
  std::vector<std::uint64_t> bits(next * kWords);
  for (std::size_t base = 0; base < db.size(); base += kBlock) {
    std::fill(bits.begin(), bits.end(), 0);
    const std::size_t end = std::min(db.size(), base + kBlock);
    for (std::size_t t = base; t < end; ++t) {
      const std::size_t off = t - base;
      for (Item it : db.Transaction(t)) {
        auto found = slot.find(it);
        if (found == slot.end()) continue;
        bits[found->second * kWords + off / 64] |= 1ull << (off % 64);
      }
    }
    const std::size_t words = (end - base + 63) / 64;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      const std::vector<std::size_t>& s = cand_slots[c];
      Count n = 0;
      for (std::size_t w = 0; w < words; ++w) {
        std::uint64_t acc = bits[s[0] * kWords + w];
        for (std::size_t x = 1; x < s.size() && acc != 0; ++x) {
          acc &= bits[s[x] * kWords + w];
        }
        n += static_cast<Count>(std::popcount(acc));
      }
      counts[c] += n;
    }
  }
  return counts;
}

std::string VerifyRules(const FrequentItemsets& frequent,
                        const std::vector<Rule>& rules, double min_conf) {
  using Key = std::tuple<Itemset, Itemset, Count>;
  std::set<Key> want;
  for (const ItemsetCollection& level : frequent.levels) {
    if (level.k() < 2) continue;
    for (std::size_t i = 0; i < level.size(); ++i) {
      const ItemSpan full = level.Get(i);
      const Count joint = level.count(i);
      const std::uint32_t n = static_cast<std::uint32_t>(full.size());
      for (std::uint32_t mask = 1; mask + 1 < (1u << n); ++mask) {
        Itemset ante, cons;
        for (std::uint32_t b = 0; b < n; ++b) {
          ((mask >> b) & 1 ? ante : cons).push_back(full[b]);
        }
        Count ante_count = 0;
        if (!frequent.Lookup(ItemSpan(ante.data(), ante.size()),
                             &ante_count) ||
            ante_count == 0) {
          return Cat("antecedent ", Describe(ante), " is not frequent");
        }
        const double conf =
            static_cast<double>(joint) / static_cast<double>(ante_count);
        if (conf >= min_conf) want.insert({ante, cons, joint});
      }
    }
  }
  std::set<Key> have;
  for (const Rule& r : rules) {
    have.insert({r.antecedent, r.consequent, r.joint_count});
  }
  if (have.size() != rules.size()) return "duplicate rules";
  if (have != want) {
    return Cat("rules differ from the brute-force set (", have.size(),
               " reported, ", want.size(), " expected)");
  }
  return "";
}

}  // namespace

bool SameFrequent(const FrequentItemsets& a, const FrequentItemsets& b) {
  if (a.levels.size() != b.levels.size()) return false;
  for (std::size_t l = 0; l < a.levels.size(); ++l) {
    const ItemsetCollection& x = a.levels[l];
    const ItemsetCollection& y = b.levels[l];
    if (x.k() != y.k() || x.size() != y.size() || x.counts() != y.counts()) {
      return false;
    }
    for (std::size_t i = 0; i < x.size(); ++i) {
      const ItemSpan p = x.Get(i);
      const ItemSpan q = y.Get(i);
      if (!std::equal(p.begin(), p.end(), q.begin(), q.end())) return false;
    }
  }
  return true;
}

bool SameRules(const std::vector<Rule>& a, const std::vector<Rule>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].antecedent != b[i].antecedent ||
        a[i].consequent != b[i].consequent ||
        a[i].joint_count != b[i].joint_count ||
        a[i].support != b[i].support || a[i].confidence != b[i].confidence) {
      return false;
    }
  }
  return true;
}

std::uint64_t ResultDigest(const FrequentItemsets& frequent,
                           const std::vector<Rule>& rules) {
  std::uint64_t h = 1469598103934665603ull;
  const auto fold = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const ItemsetCollection& level : frequent.levels) {
    fold(static_cast<std::uint64_t>(level.k()));
    fold(level.size());
    for (std::size_t i = 0; i < level.size(); ++i) {
      for (Item it : level.Get(i)) fold(it);
      fold(level.count(i));
    }
  }
  fold(rules.size());
  for (const Rule& r : rules) {
    for (Item it : r.antecedent) fold(it);
    fold(~0ull);
    for (Item it : r.consequent) fold(it);
    fold(r.joint_count);
  }
  return h;
}

std::string VerifyWithOracle(const TransactionDatabase& db, Count minsup,
                             const FrequentItemsets& frequent,
                             const std::vector<Rule>* rules,
                             double min_confidence) {
  // Level 1: direct item counts.
  std::vector<Count> item_counts;
  for (std::size_t t = 0; t < db.size(); ++t) {
    for (Item it : db.Transaction(t)) {
      if (it >= item_counts.size()) item_counts.resize(it + 1, 0);
      ++item_counts[it];
    }
  }
  Level level;
  for (std::size_t it = 0; it < item_counts.size(); ++it) {
    if (item_counts[it] >= minsup) {
      level.push_back({{static_cast<Item>(it)}, item_counts[it]});
    }
  }
  std::size_t k = 1;
  std::string diff = CompareLevel(k, level, frequent);
  if (!diff.empty()) return diff;

  // Level 2: a dense pair matrix over the frequent items.
  if (level.size() >= 2) {
    const std::size_t r = level.size();
    std::vector<std::uint32_t> rank(item_counts.size(), UINT32_MAX);
    for (std::size_t i = 0; i < r; ++i) {
      rank[level[i].first[0]] = static_cast<std::uint32_t>(i);
    }
    std::vector<Count> pairs(r * r, 0);
    std::vector<std::uint32_t> ranks;
    for (std::size_t t = 0; t < db.size(); ++t) {
      ranks.clear();
      for (Item it : db.Transaction(t)) {
        if (rank[it] != UINT32_MAX) ranks.push_back(rank[it]);
      }
      for (std::size_t a = 0; a < ranks.size(); ++a) {
        for (std::size_t b = a + 1; b < ranks.size(); ++b) {
          ++pairs[ranks[a] * r + ranks[b]];
        }
      }
    }
    Level next;
    for (std::size_t a = 0; a < r; ++a) {
      for (std::size_t b = a + 1; b < r; ++b) {
        if (pairs[a * r + b] >= minsup) {
          next.push_back({{level[a].first[0], level[b].first[0]},
                          pairs[a * r + b]});
        }
      }
    }
    level = std::move(next);
    k = 2;
    diff = CompareLevel(k, level, frequent);
    if (!diff.empty()) return diff;

    // Levels >= 3: own join + bitset counts of every candidate, so the
    // negative border is checked as well as the frequent sets.
    while (level.size() >= 2) {
      const std::vector<Itemset> cands = JoinAndPrune(level);
      if (cands.empty()) break;
      const std::vector<Count> counts = CountByBitsets(db, cands);
      Level frequent_k;
      for (std::size_t c = 0; c < cands.size(); ++c) {
        if (counts[c] >= minsup) frequent_k.push_back({cands[c], counts[c]});
      }
      level = std::move(frequent_k);
      ++k;
      diff = CompareLevel(k, level, frequent);
      if (!diff.empty()) return diff;
    }
  }
  const std::size_t levels = level.empty() ? k - 1 : k;
  if (frequent.levels.size() != levels) {
    return Cat("reported ", frequent.levels.size(),
               " levels, recount gives ", levels);
  }
  if (rules != nullptr) return VerifyRules(frequent, *rules, min_confidence);
  return "";
}

void Tamper(FrequentItemsets* frequent) {
  if (frequent->levels.empty() || frequent->levels.back().empty()) return;
  frequent->levels.back().add_count(0, 1);
}

}  // namespace e2e
