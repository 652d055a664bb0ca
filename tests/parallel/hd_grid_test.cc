#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "pam/parallel/common.h"
#include "pam/parallel/driver.h"
#include "testing/test_support.h"

namespace pam {
namespace {

using parallel_internal::ChooseGridRows;

TEST(HdGridTest, BelowThresholdRunsCd) {
  EXPECT_EQ(ChooseGridRows(34000, 50000, 64), 1);
  EXPECT_EQ(ChooseGridRows(0, 50000, 64), 1);
  EXPECT_EQ(ChooseGridRows(49999, 50000, 64), 1);
}

TEST(HdGridTest, ReproducesPaperTable2) {
  // Table II: P = 64, m = 50K. Candidate counts per pass and the grid the
  // paper's HD implementation chose (rows x cols).
  const std::size_t m = 50000;
  const int p = 64;
  struct Row {
    std::size_t candidates;
    int expected_rows;
  };
  const Row rows[] = {
      {351000, 8},    // pass 2: 8 x 8
      {4348000, 64},  // pass 3: 64 x 1 (pure IDD)
      {115000, 4},    // pass 4: 4 x 16
      {76000, 2},     // pass 5: 2 x 32
      {56000, 2},     // pass 6: 2 x 32
      {34000, 1},     // pass 7: 1 x 64 (pure CD)
  };
  for (const Row& row : rows) {
    EXPECT_EQ(ChooseGridRows(row.candidates, m, p), row.expected_rows)
        << "M=" << row.candidates;
  }
}

TEST(HdGridTest, RowsAlwaysDivideP) {
  for (int p : {2, 6, 12, 64, 60}) {
    for (std::size_t m : {1u, 10u, 100u, 1000u}) {
      for (std::size_t candidates :
           {0u, 5u, 50u, 500u, 5000u, 50000u}) {
        const int rows = ChooseGridRows(candidates, m, p);
        EXPECT_GE(rows, 1);
        EXPECT_LE(rows, p);
        EXPECT_EQ(p % rows, 0) << "p=" << p << " rows=" << rows;
      }
    }
  }
}

TEST(HdGridTest, RowsMonotoneInCandidates) {
  const int p = 64;
  const std::size_t m = 1000;
  int prev = 1;
  for (std::size_t candidates = 100; candidates <= 200000;
       candidates += 900) {
    const int rows = ChooseGridRows(candidates, m, p);
    EXPECT_GE(rows, prev);
    prev = rows;
  }
  EXPECT_EQ(prev, p);
}

TEST(HdGridTest, ZeroThresholdMeansCd) {
  EXPECT_EQ(ChooseGridRows(1000000, 0, 64), 1);
}

TEST(HdGridTest, RowsCoverAtLeastCeilRatio) {
  // The chosen G must satisfy M / G <= m whenever any divisor allows it,
  // i.e. G >= ceil(M/m) (unless capped at P).
  for (int p : {8, 12, 64}) {
    for (std::size_t candidates : {1000u, 5000u, 12345u, 99999u}) {
      const std::size_t m = 1000;
      const int rows = ChooseGridRows(candidates, m, p);
      const std::size_t want = (candidates + m - 1) / m;
      if (want <= static_cast<std::size_t>(p)) {
        EXPECT_GE(static_cast<std::size_t>(rows), want);
      } else {
        EXPECT_EQ(rows, p);
      }
    }
  }
}

// A pinned grid takes the smallest divisor of P at or above the pin, as
// Table II's threshold rule does, capped at P. Every pass HD's body runs
// (k >= 3: pass 2 is the triangle's, CD-style on every formulation)
// reports that grid on every rank, and the run mines serial's itemsets.
TEST(HdGridTest, PinnedRowsTakeTheNextDivisorOfP) {
  const TransactionDatabase db = testing::SmallQuestDb();
  ParallelConfig cfg;
  cfg.apriori.minsup_fraction = 0.02;
  const auto reference = testing::SerialReference(db, cfg.apriori);
  const int p = 8;
  for (const auto& [pin, rows] : {std::pair{3, 4}, std::pair{16, 8}}) {
    cfg.hd_forced_rows = pin;
    const std::string label = "hd_forced_rows=" + std::to_string(pin);
    const MiningReport result = MineParallel(Algorithm::kHD, db, p, cfg);
    testing::ExpectMatchesSerial(result, reference, label);
    int body_passes = 0;
    for (const std::vector<PassMetrics>& pass : result.metrics.per_pass) {
      if (pass[0].k < 3) continue;
      ++body_passes;
      for (const PassMetrics& row : pass) {
        EXPECT_EQ(row.grid_rows, rows) << label << " k=" << row.k;
        EXPECT_EQ(row.grid_cols, p / rows) << label << " k=" << row.k;
      }
    }
    EXPECT_GE(body_passes, 1) << label;
  }
}

}  // namespace
}  // namespace pam
