// Exactness on tiny edge databases: serial Apriori and every parallel
// formulation, at P in {1, 3}, with the pass-2 triangle on and off, at
// minsup_fraction 0 and 1 and at minsup_count 1, must mine exactly the
// itemsets brute-force enumeration finds. The databases are the shapes
// the Quest-driven suites never draw: no transactions, only empty
// transactions, one transaction, one item, identical transactions, seeded
// random draws of at most 12 transactions over at most 8 items (empty
// transactions included), and an item at kMaxItemId.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"
#include "pam/util/prng.h"
#include "testing/reference.h"
#include "testing/test_support.h"

namespace pam {
namespace {

// The three support settings of the sweep; each resolves against the
// database size exactly as the miners resolve it.
std::vector<AprioriConfig> SupportSettings() {
  AprioriConfig fraction_zero;
  fraction_zero.minsup_fraction = 0.0;
  AprioriConfig fraction_one;
  fraction_one.minsup_fraction = 1.0;
  AprioriConfig count_one;
  count_one.minsup_count = 1;
  return {fraction_zero, fraction_one, count_one};
}

// Mines `db` with every formulation and configuration of the sweep and
// compares each result with brute-force enumeration.
void ExpectExact(const TransactionDatabase& db, const std::string& label,
                 const std::vector<int>& rank_counts = {1, 3}) {
  for (const AprioriConfig& support : SupportSettings()) {
    const Count minsup = support.ResolveMinsup(db.size());
    const auto expected = testing::BruteForceFrequent(db, minsup, 64);
    for (const bool triangle : {true, false}) {
      AprioriConfig apriori = support;
      apriori.use_pass2_triangle = triangle;
      const std::string cell = label + " minsup=" + std::to_string(minsup) +
                               " count=" +
                               std::to_string(support.minsup_count) +
                               " tri=" + (triangle ? "1" : "0");
      testing::ExpectMatchesSerial(MineSerial(db, apriori), expected,
                                   "serial " + cell);
      ParallelConfig config;
      config.apriori = apriori;
      config.hd_threshold_m = 1;  // HD splits candidates whenever it can
      for (const int p : rank_counts) {
        for (const Algorithm alg :
             {Algorithm::kCD, Algorithm::kDD, Algorithm::kDDComm,
              Algorithm::kIDD, Algorithm::kHD, Algorithm::kHPA}) {
          testing::ExpectMatchesSerial(
              MineParallel(alg, db, p, config), expected,
              AlgorithmName(alg) + " P=" + std::to_string(p) + " " + cell);
        }
      }
    }
  }
}

TEST(EdgeExactnessTest, SeededTinyDatabases) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Prng rng(seed);
    const std::size_t num_transactions = rng.NextBounded(13);  // 0..12
    const Item num_items = 1 + static_cast<Item>(rng.NextBounded(8));
    TransactionDatabase db;
    for (std::size_t t = 0; t < num_transactions; ++t) {
      // Length 0..num_items draws; duplicates collapse, so empty and
      // full-width transactions both occur.
      std::vector<Item> tx(rng.NextBounded(num_items + 1));
      for (Item& item : tx) {
        item = static_cast<Item>(rng.NextBounded(num_items));
      }
      db.Add(std::move(tx));
    }
    ExpectExact(db, "seed=" + std::to_string(seed));
  }
}

TEST(EdgeExactnessTest, EmptyDatabase) {
  ExpectExact(TransactionDatabase(), "empty database");
}

TEST(EdgeExactnessTest, OnlyEmptyTransactions) {
  TransactionDatabase db;
  for (int t = 0; t < 5; ++t) db.Add({});
  ExpectExact(db, "only empty transactions");
}

TEST(EdgeExactnessTest, OneTransaction) {
  TransactionDatabase db;
  db.Add({0, 2, 3, 5, 7});
  ExpectExact(db, "one transaction");
}

TEST(EdgeExactnessTest, OneItem) {
  TransactionDatabase db;
  for (int t = 0; t < 4; ++t) db.Add({6});
  db.Add({});
  ExpectExact(db, "one item");
}

TEST(EdgeExactnessTest, IdenticalTransactions) {
  TransactionDatabase db;
  for (int t = 0; t < 7; ++t) db.Add({1, 2, 4, 5});
  ExpectExact(db, "identical transactions");
}

TEST(EdgeExactnessTest, ItemAtMaxItemId) {
  // Pass 1 sizes its count array by NumItems() (128 MiB per rank here),
  // so this shape runs at P = 1 only.
  TransactionDatabase db;
  db.Add({0, 9, kMaxItemId});
  db.Add({9, kMaxItemId});
  db.Add({0, kMaxItemId});
  db.Add({});
  ExpectExact(db, "kMaxItemId", {1});
}

}  // namespace
}  // namespace pam
