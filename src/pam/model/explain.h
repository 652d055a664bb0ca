#ifndef PAM_MODEL_EXPLAIN_H_
#define PAM_MODEL_EXPLAIN_H_

#include <string>

#include "pam/model/cost_model.h"

namespace pam {

/// Renders a per-pass explanation of a parallel run under a cost model:
/// pass, grid, candidate counts, subset work distribution (with load
/// imbalance), communication, and the modeled time split by component —
/// the decomposition the paper uses in its Figure-13 discussion. Used by
/// examples and the pam_mine CLI (--explain).
std::string ExplainRun(const CostModel& model, Algorithm algorithm,
                       const RunMetrics& metrics);

}  // namespace pam

#endif  // PAM_MODEL_EXPLAIN_H_
