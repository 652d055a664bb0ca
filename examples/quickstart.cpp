// Quickstart: mine association rules from the paper's Table I supermarket
// database with the serial Apriori miner, through the MiningSession API.
//
//   $ ./quickstart
//
// Reproduces the running example of Section II: sigma(Diaper, Milk) = 3,
// sigma(Diaper, Milk, Beer) = 2, and the rule {Diaper, Milk} => {Beer}
// with support 40% and confidence 66%.

#include <cstdio>
#include <string>
#include <vector>

#include "pam/api/session.h"
#include "pam/tdb/database.h"

namespace {

const char* kItemNames[] = {"Beer", "Bread", "Coke", "Diaper", "Milk"};

std::string NameSet(pam::ItemSpan items) {
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += ", ";
    out += kItemNames[items[i]];
  }
  return out + "}";
}

std::string NameVec(const std::vector<pam::Item>& items) {
  return NameSet(pam::ItemSpan(items.data(), items.size()));
}

}  // namespace

int main() {
  // Table I of the paper (items: Beer=0, Bread=1, Coke=2, Diaper=3,
  // Milk=4).
  pam::TransactionDatabase db;
  db.Add({1, 2, 4});     // Bread, Coke, Milk
  db.Add({0, 1});        // Beer, Bread
  db.Add({0, 2, 3, 4});  // Beer, Coke, Diaper, Milk
  db.Add({0, 1, 3, 4});  // Beer, Bread, Diaper, Milk
  db.Add({2, 3, 4});     // Coke, Diaper, Milk

  pam::MiningRequest request;  // serial Apriori by default
  request.config.apriori.minsup_count = 2;  // 40% of 5 transactions
  request.generate_rules = true;
  request.min_confidence = 0.6;

  pam::MiningSession session;
  const pam::MiningReport report = session.Run(request, db);

  std::printf("Frequent itemsets (minimum support count %llu):\n",
              static_cast<unsigned long long>(report.minsup_count));
  for (const auto& level : report.frequent.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      std::printf("  %-28s support %llu/5\n",
                  NameSet(level.Get(i)).c_str(),
                  static_cast<unsigned long long>(level.count(i)));
    }
  }

  std::printf("\nAssociation rules (minimum confidence 60%%):\n");
  for (const pam::Rule& rule : report.rules) {
    std::printf("  %-20s => %-16s support %4.0f%%  confidence %4.0f%%\n",
                NameVec(rule.antecedent).c_str(),
                NameVec(rule.consequent).c_str(), rule.support * 100.0,
                rule.confidence * 100.0);
  }
  return 0;
}
