#include "pam/model/explain.h"

#include <gtest/gtest.h>

#include "pam/parallel/driver.h"
#include "testing/random_db.h"

namespace pam {
namespace {

MiningReport SmallRun() {
  TransactionDatabase db = testing::RandomDb(200, 20, 8, 91);
  ParallelConfig cfg;
  cfg.apriori.minsup_count = 6;
  return MineParallel(Algorithm::kHD, db, 4, cfg);
}

TEST(ExplainTest, MentionsAlgorithmMachineAndPasses) {
  MiningReport run = SmallRun();
  CostModel model(MachineModel::CrayT3E());
  const std::string text = ExplainRun(model, Algorithm::kHD, run.metrics);
  EXPECT_NE(text.find("HD on 4 ranks"), std::string::npos);
  EXPECT_NE(text.find("Cray T3E"), std::string::npos);
  EXPECT_NE(text.find("modeled response time"), std::string::npos);
  // One line per pass plus headers/footer.
  std::size_t lines = 0;
  for (char c : text) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines,
            static_cast<std::size_t>(run.metrics.num_passes()) + 3);
}

TEST(ExplainTest, TotalMatchesRunTime) {
  MiningReport run = SmallRun();
  CostModel model(MachineModel::CrayT3E());
  const double expected = model.RunTime(Algorithm::kHD, run.metrics);
  const std::string text = ExplainRun(model, Algorithm::kHD, run.metrics);
  char buffer[64];
  snprintf(buffer, sizeof(buffer), "modeled response time: %.3fs",
           expected);
  EXPECT_NE(text.find(buffer), std::string::npos) << text;
}

TEST(ExplainTest, EmptyMetrics) {
  CostModel model(MachineModel::CrayT3E());
  RunMetrics metrics;
  const std::string text = ExplainRun(model, Algorithm::kCD, metrics);
  EXPECT_NE(text.find("modeled response time: 0.000s"), std::string::npos);
}

}  // namespace
}  // namespace pam
