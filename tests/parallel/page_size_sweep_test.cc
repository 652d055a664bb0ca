// The wire page size is a pure performance knob: results must be
// identical across pathological and generous page sizes for every
// formulation that moves transaction data.

#include <map>
#include <tuple>

#include <gtest/gtest.h>

#include "pam/core/serial_apriori.h"
#include "pam/parallel/driver.h"
#include "testing/random_db.h"

namespace pam {
namespace {

std::map<std::vector<Item>, Count> Flatten(const FrequentItemsets& fi) {
  std::map<std::vector<Item>, Count> out;
  for (const auto& level : fi.levels) {
    for (std::size_t i = 0; i < level.size(); ++i) {
      ItemSpan s = level.Get(i);
      out[std::vector<Item>(s.begin(), s.end())] = level.count(i);
    }
  }
  return out;
}

class PageSizeSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::size_t>> {
};

TEST_P(PageSizeSweep, ResultsIndependentOfPageSize) {
  const auto [algorithm, page_bytes] = GetParam();
  TransactionDatabase db = testing::RandomDb(250, 25, 9, 777);
  AprioriConfig serial_cfg;
  serial_cfg.minsup_count = 8;
  MiningReport serial = MineSerial(db, serial_cfg);
  ASSERT_GT(serial.frequent.TotalCount(), 0u);

  ParallelConfig cfg;
  cfg.apriori = serial_cfg;
  cfg.page_bytes = page_bytes;
  MiningReport result = MineParallel(algorithm, db, 5, cfg);
  EXPECT_EQ(Flatten(result.frequent), Flatten(serial.frequent));
}

INSTANTIATE_TEST_SUITE_P(
    MovementAlgorithms, PageSizeSweep,
    ::testing::Combine(::testing::Values(Algorithm::kDD, Algorithm::kDDComm,
                                         Algorithm::kIDD, Algorithm::kHD,
                                         Algorithm::kHPA),
                       ::testing::Values(std::size_t{1}, std::size_t{64},
                                         std::size_t{100000})),
    [](const ::testing::TestParamInfo<std::tuple<Algorithm, std::size_t>>&
           info) {
      std::string name = AlgorithmName(std::get<0>(info.param));
      for (char& c : name) {
        if (c == '+') c = '_';
      }
      return name + "_pb" + std::to_string(std::get<1>(info.param));
    });

// Page size changes data *message* counts but never data volume for the
// ring algorithms.
TEST(PageSizeSweepExtra, VolumeInvariantMessagesNot) {
  TransactionDatabase db = testing::RandomDb(300, 20, 8, 779);
  ParallelConfig small;
  small.apriori.minsup_count = 10;
  small.page_bytes = 64;
  ParallelConfig large = small;
  large.page_bytes = 1 << 20;

  MiningReport a = MineParallel(Algorithm::kIDD, db, 4, small);
  MiningReport b = MineParallel(Algorithm::kIDD, db, 4, large);
  ASSERT_EQ(a.metrics.num_passes(), b.metrics.num_passes());
  std::uint64_t small_msgs = 0;
  std::uint64_t large_msgs = 0;
  for (int pass = 1; pass < a.metrics.num_passes(); ++pass) {
    EXPECT_EQ(a.metrics.TotalDataBytes(pass),
              b.metrics.TotalDataBytes(pass));
    for (const PassMetrics& m :
         a.metrics.per_pass[static_cast<std::size_t>(pass)]) {
      small_msgs += m.data_messages_sent;
    }
    for (const PassMetrics& m :
         b.metrics.per_pass[static_cast<std::size_t>(pass)]) {
      large_msgs += m.data_messages_sent;
    }
  }
  EXPECT_GT(small_msgs, large_msgs);
}

}  // namespace
}  // namespace pam
