#include "pam/model/cost_model.h"

#include <gtest/gtest.h>

namespace pam {
namespace {

PassMetrics MakeRank(std::uint64_t traversal, std::uint64_t leaves,
                     std::uint64_t checks) {
  PassMetrics m;
  m.k = 2;
  m.subset.traversal_steps = traversal;
  m.subset.distinct_leaf_visits = leaves;
  m.subset.leaf_candidates_checked = checks;
  return m;
}

TEST(CostModelTest, SubsetSecondsLinearInCounters) {
  MachineModel machine;
  machine.t_travers = 1.0;
  machine.t_check = 10.0;
  machine.t_compare = 100.0;
  CostModel model(machine);
  SubsetStats s;
  s.traversal_steps = 2;
  s.distinct_leaf_visits = 3;
  s.leaf_candidates_checked = 4;
  EXPECT_DOUBLE_EQ(model.SubsetSeconds(s), 2.0 + 30.0 + 400.0);
}

TEST(CostModelTest, SlowestRankPacesThePass) {
  MachineModel machine;
  machine.t_travers = 1.0;
  CostModel model(machine);
  std::vector<PassMetrics> ranks = {MakeRank(10, 0, 0), MakeRank(50, 0, 0),
                                    MakeRank(20, 0, 0)};
  PassTimeBreakdown t = model.PassTime(Algorithm::kCD, ranks);
  EXPECT_DOUBLE_EQ(t.subset, 50.0);
}

TEST(CostModelTest, DdPaysContention) {
  MachineModel machine;
  machine.bandwidth = 100.0;
  machine.latency = 0.0;
  machine.dd_contention = 4.0;
  CostModel model(machine);
  PassMetrics m;
  m.data_bytes_sent = 1000;
  std::vector<PassMetrics> ranks = {m};
  const double dd = model.PassTime(Algorithm::kDD, ranks).data_comm;
  const double idd = model.PassTime(Algorithm::kIDD, ranks).data_comm;
  EXPECT_DOUBLE_EQ(idd, 10.0);
  EXPECT_DOUBLE_EQ(dd, 40.0);
}

TEST(CostModelTest, ReductionScalesWithLogP) {
  MachineModel machine;
  machine.bandwidth = 1e9;
  machine.latency = 1.0;
  CostModel model(machine);
  PassMetrics m;
  m.reduction_words = 1;
  std::vector<PassMetrics> ranks16(16, m);
  std::vector<PassMetrics> ranks64(64, m);
  const double r16 = model.PassTime(Algorithm::kCD, ranks16).reduction;
  const double r64 = model.PassTime(Algorithm::kCD, ranks64).reduction;
  EXPECT_NEAR(r16, 4.0, 1e-6);
  EXPECT_NEAR(r64, 6.0, 1e-6);
}

TEST(CostModelTest, HdReductionUsesGridCols) {
  MachineModel machine;
  machine.bandwidth = 1e9;
  machine.latency = 1.0;
  CostModel model(machine);
  PassMetrics m;
  m.reduction_words = 1;
  m.grid_rows = 8;
  m.grid_cols = 8;
  std::vector<PassMetrics> ranks(64, m);
  // HD reduces along rows of width 8 -> 3 stages, not log2(64) = 6.
  EXPECT_NEAR(model.PassTime(Algorithm::kHD, ranks).reduction, 3.0, 1e-6);
}

TEST(CostModelTest, IoChargedOnlyWithFiniteIoBandwidth) {
  MachineModel ram;
  ram.io_bandwidth = 0.0;
  MachineModel disk;
  disk.io_bandwidth = 100.0;
  PassMetrics m;
  m.db_scans = 3;
  m.local_db_wire_bytes = 1000;
  std::vector<PassMetrics> ranks = {m};
  EXPECT_DOUBLE_EQ(CostModel(ram).PassTime(Algorithm::kCD, ranks).io, 0.0);
  EXPECT_DOUBLE_EQ(CostModel(disk).PassTime(Algorithm::kCD, ranks).io, 30.0);
}

TEST(CostModelTest, TreeBuildChargesInsertsAndGeneration) {
  MachineModel machine;
  machine.t_build = 2.0;
  machine.t_gen = 1.0;
  CostModel model(machine);
  PassMetrics m;
  m.tree_build_inserts = 10;
  m.num_candidates_global = 5;
  std::vector<PassMetrics> ranks = {m};
  EXPECT_DOUBLE_EQ(model.PassTime(Algorithm::kCD, ranks).tree_build, 25.0);
}

TEST(CostModelTest, RunTimeSumsPasses) {
  MachineModel machine;
  machine.t_travers = 1.0;
  CostModel model(machine);
  RunMetrics metrics;
  metrics.per_pass.push_back({MakeRank(10, 0, 0)});
  metrics.per_pass.push_back({MakeRank(30, 0, 0)});
  EXPECT_DOUBLE_EQ(model.RunTime(Algorithm::kCD, metrics), 40.0);
}

TEST(CostModelTest, SerialRunTime) {
  MachineModel machine;
  machine.t_travers = 1.0;
  machine.t_build = 1.0;
  machine.t_gen = 0.0;
  machine.io_bandwidth = 10.0;
  CostModel model(machine);
  // A serial run is one-rank CD: its reduction and exchange price zero.
  RunMetrics metrics;
  PassMetrics pass;
  pass.subset.traversal_steps = 5;
  pass.tree_build_inserts = 5;
  pass.db_scans = 2;
  pass.local_db_wire_bytes = 100;
  pass.reduction_words = 7;
  metrics.per_pass.push_back({pass});
  // 5 + 5 + 2 * 100 / 10 = 30.
  EXPECT_DOUBLE_EQ(model.PassTime(Algorithm::kCD, metrics.per_pass[0]).Total(),
                   30.0);
  EXPECT_DOUBLE_EQ(model.RunTime(Algorithm::kCD, metrics), 30.0);
}

TEST(CostModelTest, MachinePresetsAreSane) {
  const MachineModel t3e = MachineModel::CrayT3E();
  const MachineModel sp2 = MachineModel::IbmSp2();
  EXPECT_GT(t3e.bandwidth, sp2.bandwidth);
  EXPECT_LT(t3e.t_travers, sp2.t_travers);
  EXPECT_EQ(t3e.io_bandwidth, 0.0);
  EXPECT_GT(sp2.io_bandwidth, 0.0);
  EXPECT_GT(sp2.memory_capacity_candidates, 0u);
  EXPECT_GT(t3e.dd_contention, 1.0);
}

TEST(CostModelTest, BroadcastUsesGroupGeometry) {
  MachineModel machine;
  machine.bandwidth = 8.0;  // 1 word/sec
  machine.latency = 0.0;
  CostModel model(machine);
  PassMetrics m;
  m.broadcast_words = 10;
  m.grid_rows = 4;
  m.grid_cols = 2;
  // IDD: one group of all ranks, total words = 20.
  std::vector<PassMetrics> ranks(2, m);
  EXPECT_DOUBLE_EQ(model.PassTime(Algorithm::kIDD, ranks).broadcast, 20.0);
  // HD: 2 column groups exchanging in parallel -> per-group 10 words.
  EXPECT_DOUBLE_EQ(model.PassTime(Algorithm::kHD, ranks).broadcast, 10.0);
  // A one-member group sends nothing: HD's columns on a 1 x P grid, and
  // the whole machine at P = 1.
  for (PassMetrics& r : ranks) {
    r.grid_rows = 1;
    r.grid_cols = 2;
  }
  EXPECT_DOUBLE_EQ(model.PassTime(Algorithm::kHD, ranks).broadcast, 0.0);
  const std::vector<PassMetrics> one_rank(1, m);
  EXPECT_DOUBLE_EQ(model.PassTime(Algorithm::kIDD, one_rank).broadcast, 0.0);
}

}  // namespace
}  // namespace pam
