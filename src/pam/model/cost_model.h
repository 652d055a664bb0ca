#ifndef PAM_MODEL_COST_MODEL_H_
#define PAM_MODEL_COST_MODEL_H_

#include <vector>

#include "pam/model/machine.h"
#include "pam/parallel/algorithms.h"
#include "pam/parallel/driver.h"

namespace pam {

/// Time components of one pass under the machine model (seconds).
struct PassTimeBreakdown {
  double subset = 0.0;      // hash tree traversal + leaf checking
  double tree_build = 0.0;  // candidate generation + hash tree construction
  double data_comm = 0.0;   // transaction movement (ring or all-to-all)
  double reduction = 0.0;   // count reduction
  double broadcast = 0.0;   // frequent itemset all-to-all broadcast
  double io = 0.0;          // database scan traffic

  double Total() const {
    return subset + tree_build + data_comm + reduction + broadcast + io;
  }
};

/// Converts the exact per-rank work counts measured by a run into response
/// times for a target machine — the reproduction substitute for wall-clock
/// measurements on the paper's Cray T3E / IBM SP2 (see DESIGN.md). Compute
/// terms take the maximum over ranks (ranks synchronize at each pass's
/// collectives, so the slowest rank sets the pace — this is also where
/// load imbalance shows up); communication terms follow the collective
/// algorithms of Section IV.
class CostModel {
 public:
  explicit CostModel(MachineModel machine) : machine_(std::move(machine)) {}

  const MachineModel& machine() const { return machine_; }

  /// Seconds of subset-function work implied by the counters.
  double SubsetSeconds(const SubsetStats& stats) const;

  /// Response time of one pass of a parallel run. A serial pass is the
  /// one-rank kCD row, where the reduction and exchange price zero.
  PassTimeBreakdown PassTime(Algorithm algorithm,
                             const std::vector<PassMetrics>& ranks) const;

  /// Response time of a whole parallel run (sum of pass times).
  double RunTime(Algorithm algorithm, const RunMetrics& metrics) const;

 private:
  MachineModel machine_;
};

}  // namespace pam

#endif  // PAM_MODEL_COST_MODEL_H_
