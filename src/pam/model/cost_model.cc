#include "pam/model/cost_model.h"

#include <algorithm>
#include <cmath>

namespace pam {
namespace {

double CeilLog2(int n) {
  if (n <= 1) return 0.0;
  return std::ceil(std::log2(static_cast<double>(n)));
}

}  // namespace

double CostModel::SubsetSeconds(const SubsetStats& stats) const {
  return static_cast<double>(stats.root_items_considered +
                             stats.root_items_skipped) *
             machine_.t_root +
         static_cast<double>(stats.traversal_steps) * machine_.t_travers +
         static_cast<double>(stats.distinct_leaf_visits) * machine_.t_check +
         static_cast<double>(stats.leaf_candidates_checked) *
             machine_.t_compare;
}

PassTimeBreakdown CostModel::PassTime(
    Algorithm algorithm, const std::vector<PassMetrics>& ranks) const {
  PassTimeBreakdown out;
  if (ranks.empty()) return out;
  const int p = static_cast<int>(ranks.size());

  // Compute terms: the slowest rank paces the pass (ranks meet at the
  // pass-end collectives), so load imbalance surfaces as a larger max.
  std::uint64_t max_reduction_words = 0;
  std::uint64_t sum_broadcast_words = 0;
  double max_data_comm = 0.0;
  for (const PassMetrics& m : ranks) {
    out.subset = std::max(out.subset, SubsetSeconds(m.subset));
    out.tree_build = std::max(
        out.tree_build,
        static_cast<double>(m.tree_build_inserts) * machine_.t_build +
            static_cast<double>(m.num_candidates_global) * machine_.t_gen);
    max_reduction_words = std::max(max_reduction_words, m.reduction_words);
    sum_broadcast_words += m.broadcast_words;
    const double comm =
        static_cast<double>(m.data_bytes_sent) / machine_.bandwidth +
        static_cast<double>(m.data_messages_sent) * machine_.latency;
    max_data_comm = std::max(max_data_comm, comm);
    if (machine_.io_bandwidth > 0.0) {
      out.io = std::max(
          out.io, static_cast<double>(m.db_scans) *
                      static_cast<double>(m.local_db_wire_bytes) /
                      machine_.io_bandwidth);
    }
  }

  // Data movement: the unstructured all-to-all patterns (DD's page
  // scatter, HPA's subset scatter) additionally pay network contention;
  // the ring pipeline (DD+comm / IDD / HD columns) does not.
  out.data_comm =
      algorithm == Algorithm::kDD || algorithm == Algorithm::kHPA
          ? max_data_comm * machine_.dd_contention
          : max_data_comm;

  // Count reduction: recursive-halving tree over the participating group
  // (all P ranks for CD; grid rows of width cols for HD).
  if (max_reduction_words > 0) {
    int group = p;
    if (algorithm == Algorithm::kHD) group = ranks[0].grid_cols;
    const double stages = CeilLog2(group);
    out.reduction =
        stages * (machine_.latency +
                  static_cast<double>(max_reduction_words) * 8.0 /
                      machine_.bandwidth);
  }

  // Frequent-set exchange: ring all-gather within each exchange group
  // (whole machine for DD/IDD, grid columns for HD; the groups proceed in
  // parallel, so the per-group volume is the summed contribution divided
  // by the number of groups). A one-member group sends nothing.
  int group_members = p;
  int num_groups = 1;
  if (algorithm == Algorithm::kHD) {
    group_members = ranks[0].grid_rows;
    num_groups = ranks[0].grid_cols;
  }
  if (sum_broadcast_words > 0 && group_members > 1) {
    const double group_words = static_cast<double>(sum_broadcast_words) /
                               static_cast<double>(num_groups);
    out.broadcast = static_cast<double>(group_members - 1) *
                        machine_.latency +
                    group_words * 8.0 / machine_.bandwidth;
  }
  return out;
}

double CostModel::RunTime(Algorithm algorithm,
                          const RunMetrics& metrics) const {
  double total = 0.0;
  for (const auto& pass : metrics.per_pass) {
    total += PassTime(algorithm, pass).Total();
  }
  return total;
}

}  // namespace pam
